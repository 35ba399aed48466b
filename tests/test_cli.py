"""Command-line behavior: exit codes, artifacts, and output formats.

Everything runs in-process through ``main(argv)``; the slow prove paths
use the quick preset, full resolution belongs to the acceptance suite.
"""

import csv
import io
import json
import math
import re
import sys

import pytest

from helpers import needs_two_cores, stdout_per_blas_threads
from tricert import cli
from tricert.cli import SWEEP_COLUMNS, main
from tricert.certify import CSV_COLUMNS, paper_schedule

EQ = math.pi / 3


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# exit codes ------------------------------------------------------------------


def test_help_exits_zero():
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0


def test_bad_mesh_size_is_config_error(capsys):
    code, _, err = run_cli(
        capsys, "prove", "--problem", "dirichlet", "--cg-n", "0", "--quick"
    )
    assert code == 2
    assert "configuration error" in err


def test_missing_schedule_file_is_config_error(capsys):
    code, _, err = run_cli(
        capsys, "prove", "--problem", "dirichlet", "--schedule", "/nope/sched.json"
    )
    assert code == 2
    assert "configuration error" in err


@pytest.mark.parametrize("text", ["[0.5, null]", "[[0.5]]", "[0.5, true]"])
def test_malformed_schedule_file_is_config_error(capsys, tmp_path, text):
    path = tmp_path / "sched.json"
    path.write_text(text)
    code, _, err = run_cli(
        capsys, "prove", "--problem", "dirichlet", "--schedule", str(path)
    )
    assert code == 2
    assert "configuration error" in err


def test_paper_config_rejects_deviations(capsys, monkeypatch):
    # a configuration that passes the check reaches run_proof, stopped here
    class Reached(Exception):
        pass

    def stop(config):
        raise Reached(config)

    monkeypatch.setattr(cli, "run_proof", stop)
    code, _, err = run_cli(
        capsys, "prove", "--problem", "dirichlet", "--paper-config", "--quick"
    )
    assert code == 2 and "--quick" in err
    code, _, err = run_cli(
        capsys, "prove", "--problem", "dirichlet", "--paper-config", "--cg-n", "48"
    )
    assert code == 2 and "48" in err
    for flag, value in (("--eq-cg-n", "8"), ("--eq-cr-n", "8")):
        code, _, err = run_cli(
            capsys, "prove", "--problem", "dirichlet", "--paper-config", flag, value
        )
        assert code == 2 and f"{flag} {value}" in err

    # the published corner meshes are no deviation
    for problem, eq_cg_n, eq_cr_n in (("dirichlet", 288, 128), ("cr-constant", 192, 32)):
        with pytest.raises(Reached) as reached:
            main([
                "prove", "--problem", problem, "--paper-config",
                "--eq-cg-n", str(eq_cg_n), "--eq-cr-n", str(eq_cr_n),
            ])
        config = reached.value.args[0]
        assert (config.eq_cg_n, config.eq_cr_n) == (eq_cg_n, eq_cr_n)


def test_paper_config_names_a_file_schedule(capsys, tmp_path):
    # the published angles read from a file still deviate: the
    # certificate would record the file as the schedule's provenance
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(list(paper_schedule("dirichlet").breakpoints)))
    code, _, err = run_cli(
        capsys, "prove", "--problem", "dirichlet", "--paper-config", "--schedule", str(path)
    )
    assert code == 2 and f"--schedule file:{path}" in err


def test_sweep_rejects_angles_outside_range(capsys):
    for bad in ("0.0", "-0.3", repr(EQ + 0.01)):
        code, _, err = run_cli(
            capsys, "sweep", "--problem", "dirichlet", "--theta", bad
        )
        assert code == 2, bad
        assert "configuration error" in err


@pytest.mark.parametrize("flag", ["--cg-n", "--cr-n", "--jobs"])
def test_sweep_nonpositive_sizes_are_config_errors(capsys, flag):
    code, _, err = run_cli(
        capsys, "sweep", "--problem", "dirichlet", "--theta", "0.5", flag, "0"
    )
    assert code == 2
    assert err.startswith("configuration error")


def test_sweep_failed_point_solve_is_numerical_abort(capsys):
    # the conforming Dirichlet space on the 2-fold mesh has no unknowns
    code, out, err = run_cli(
        capsys, "sweep", "--problem", "dirichlet", "--theta", "0.5",
        "--cg-n", "2", "--cr-n", "2",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("numerical abort") and err.count("\n") == 1


def test_constants_takes_no_jobs_or_out(capsys):
    for flag, value in (("--jobs", "2"), ("--out", "somewhere")):
        with pytest.raises(SystemExit) as e:
            main(["constants", "--theta", "1.0", flag, value])
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# sweep -----------------------------------------------------------------------


def test_sweep_no_angles_is_config_error(capsys):
    code, out, err = run_cli(capsys, "sweep", "--problem", "dirichlet")
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error") and err.count("\n") == 1


def test_sweep_sorts_and_brackets(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--problem", "dirichlet",
        "--theta", "1.0,0.5", "--theta", "0.8",
        "--cg-n", "12", "--cr-n", "8",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(SWEEP_COLUMNS)
    thetas = [float(r[0]) for r in rows[1:]]
    assert thetas == sorted(thetas) == [0.5, 0.8, 1.0]
    for r in rows[1:]:
        assert 0.0 < float(r[1]) <= float(r[2])


def test_sweep_theta_range_to_file(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--problem", "cr-constant",
        "--theta-range", "0.5", "1.0", "3",
        "--cg-n", "12", "--cr-n", "8",
        "--out", str(tmp_path),
    )
    assert code == 0
    path = tmp_path / "sweep.csv"
    assert path.exists() and str(path) in out
    rows = list(csv.reader(open(path, newline="")))
    assert rows[0] == list(SWEEP_COLUMNS)
    assert [float(r[0]) for r in rows[1:]] == [0.5, 0.75, 1.0]


# constants -------------------------------------------------------------------


def c_interval(out):
    m = re.search(r"C:\s+\[([^,]+), ([^\]]+)\]", out)
    return float(m.group(1)), float(m.group(2))


def test_constants_equilateral_value(capsys):
    code, out, _ = run_cli(
        capsys,
        "constants", "--theta", repr(EQ), "--cg-n", "48", "--cr-n", "32",
    )
    assert code == 0
    lo, hi = c_interval(out)
    assert lo <= 0.18926 <= hi
    assert hi < 0.1893


def test_constants_scales_with_diameter(capsys):
    # same shape at diameters 1 and sqrt(2): C is homogeneous of degree 1
    code, out1, _ = run_cli(
        capsys, "constants", "--theta", repr(math.pi / 2),
        "--cg-n", "32", "--cr-n", "16",
    )
    assert code == 0
    m = re.search(r"diameter ([0-9.e+-]+)", out1)
    assert math.isclose(float(m.group(1)), math.sqrt(2.0), rel_tol=1e-12)
    code, out2, _ = run_cli(
        capsys, "constants", "--bx", "0.5", "--by", "0.5",
        "--cg-n", "32", "--cr-n", "16",
    )
    assert code == 0
    lo1, hi1 = c_interval(out1)
    lo2, hi2 = c_interval(out2)
    mid1, mid2 = (lo1 + hi1) / 2, (lo2 + hi2) / 2
    assert math.isclose(mid1 / mid2, math.sqrt(2.0), rel_tol=1e-3)


@needs_two_cores
def test_constants_bits_independent_of_blas_threads():
    # at the equilateral corner on a 192/32 mesh pair a two-thread BLAS
    # used to change the last digits of the printed upper bound
    outs = stdout_per_blas_threads(
        [sys.executable, "-m", "tricert", "constants", "--theta", repr(EQ),
         "--cg-n", "192", "--cr-n", "32"]
    )
    assert outs[0] == outs[1]


def test_constants_argument_validation(capsys):
    cases = [
        ("--theta", "0.5", "--bx", "0.5", "--by", "0.5"),  # both forms
        ("--theta", "0.0"),                                # degenerate angle
        ("--bx", "0.5", "--by", "-0.1"),                   # below the base
        ("--bx", "1.9", "--by", "0.4"),                    # outside the lens
        (),                                                # neither form
    ]
    for extra in cases:
        code, _, err = run_cli(capsys, "constants", *extra)
        assert code == 2, extra
        assert "configuration error" in err


# prove -----------------------------------------------------------------------


def test_prove_quick_writes_artifacts(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "prove", "--problem", "cr-constant", "--quick", "--out", str(tmp_path),
    )
    cert = json.load(open(tmp_path / "certificate.json"))
    # exit code is a function of the verdict alone
    assert code == (0 if cert["verdict"] == "proven" else 1)
    assert ("verdict:  " + cert["verdict"]) in out
    if code == 1:
        assert cert["failure"] is not None
        assert "failure" in err

    with open(tmp_path / "ledger.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == list(CSV_COLUMNS)
    # ledger is complete even when the margin check fails
    assert len(rows) - 1 == len(cert["ledger"]["step2"]) + len(cert["ledger"]["step3"])
    assert len(cert["ledger"]["step2"]) >= 20
    assert len(cert["ledger"]["step3"]) == 10


def test_prove_flags_apply_on_top_of_quick(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "prove", "--problem", "dirichlet", "--quick", "--cg-n", "48", "--n2", "4",
        "--out", str(tmp_path),
    )
    assert code in (0, 1)
    config = json.load(open(tmp_path / "certificate.json"))["config"]
    assert (config["cg_n"], config["n2"], config["quick"]) == (48, 4, True)
    assert config["cr_n"] == 32  # unset flags keep the preset's value
