"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q

They run every workload on tiny meshes for well under a second each, so
they check the harness, not the program's speed.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

with open(run.ROOT / "BENCHMARK.json") as f:
    DECLARED = json.load(f)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory) -> run.Config:
    schedule = tmp_path_factory.mktemp("schedule") / "schedule.json"
    schedule.write_text(json.dumps([0.5, math.pi / 3 - math.pi / 3000]))
    return run.Config(
        sweep_mesh=(12, 8),
        batch=2,
        corner_mesh={"dirichlet": (16, 8), "cr-constant": (12, 8)},
        prove_argv=("--cg-n", "8", "--cr-n", "8", "--n2", "2",
                    "--eq-cg-n", "8", "--eq-cr-n", "8", "--schedule", str(schedule)),
        setup_probes=1,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_config_emits_every_metric_with_its_unit(tiny, workload, trace):
    result, info = run.run_workload(workload, 3, 0.2, bool(trace), tiny)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert (result["correct"], result["failed"]) == (True, 0)
    json.dumps(info)


def test_shifted_bracket_fails_the_intersection_check(tiny):
    tricert = run.import_program()
    work = run.Sweep(run.WORKLOADS["sweep-dirichlet"], tiny, run.load_reference(), 5, tricert)
    batch = work.inputs[0]
    out = work.run(batch, 1)
    theta = batch[0]
    ref_hi = work.ref[theta][0][1]
    lam1 = dataclasses.replace(out[theta].lam1, lower=ref_hi * 1.01, upper=ref_hi * 1.02)
    out[theta] = dataclasses.replace(out[theta], lam1=lam1)
    checks = run.Checks()
    work.check(batch, out, checks)
    assert (checks.attempted, checks.failed) == (len(batch), 1)


def test_traced_counts_repeat_exactly(tiny):
    counts = []
    for seed in (1, 2):
        result, _ = run.run_workload("sweep-dirichlet", seed, 0.3, True, tiny)
        counts.append({
            name: v["value"] for name, v in result["metrics"].items()
            if v["unit"] == "count/point" or name == "eigsolve.certs_per_mode"
        })
    assert counts[0] == counts[1]
    per_point = counts[0]
    assert per_point["mesh.uniform_subdivide.calls"] == 2
    assert per_point["eigsolve.mass_factor.calls"] == 6
    assert per_point["eigsolve.residual_bound.calls"] == 6
    assert per_point["eigsolve.verify_enclosure.calls"] == 2
    assert per_point["eigsolve.certs_per_mode"] == 1.5


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corner", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
