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
from tricert.cli import SWEEP_COLUMNS, main
from tricert.certify import CSV_COLUMNS

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


def test_paper_config_rejects_deviations(capsys):
    code, _, err = run_cli(
        capsys, "prove", "--problem", "dirichlet", "--paper-config", "--quick"
    )
    assert code == 2 and "--quick" in err
    code, _, err = run_cli(
        capsys, "prove", "--problem", "dirichlet", "--paper-config", "--cg-n", "48"
    )
    assert code == 2 and "48" in err


def test_sweep_rejects_angles_outside_range(capsys):
    for bad in ("0.0", "-0.3", repr(EQ + 0.01)):
        code, _, err = run_cli(
            capsys, "sweep", "--problem", "dirichlet", "--theta", bad
        )
        assert code == 2, bad
        assert "configuration error" in err


# sweep -----------------------------------------------------------------------


def test_sweep_no_angles_prints_bare_header(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--problem", "dirichlet")
    assert code == 0
    assert out.strip() == ",".join(SWEEP_COLUMNS)


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
