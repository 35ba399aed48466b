"""Record the reference outputs that bench/run.py checks against.

    python3 bench/make_reference.py            # writes bench/reference.json

For each problem it solves every angle the sweep workloads can draw (the
published breakpoints plus the corner-interval nodes) at the sweep
meshes, the two published corner meshes at fl(pi/3), and the quick
proof.  Certified brackets enclose the true eigenvalues, so a bracket
computed by any later version of the program must intersect the one
recorded here.  Regenerating the file is only needed when the angle
pools or the meshes change; a speed change must not touch it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import run

OUT = Path(__file__).resolve().parent / "reference.json"


def _bracket(b) -> list[float]:
    return [b.lower, b.upper]


def main() -> None:
    run.import_program()
    from tricert import certify, cli

    ref: dict = {
        "cg_n": run.SWEEP_MESH[0],
        "cr_n": run.SWEEP_MESH[1],
        "sweep": {},
        "corner": {},
        "prove_quick": {},
    }
    for problem in certify.PROBLEMS:
        pool = sorted(
            set(certify.paper_schedule(problem).breakpoints)
            | set(certify.j_nodes(certify.PAPER_EPSILON[problem], certify.PAPER_N2[problem]))
        )
        points = certify.compute_points(problem, pool, *run.SWEEP_MESH, jobs=2)
        ref["sweep"][problem] = [
            [t, *_bracket(points[t].lam1), *_bracket(points[t].lam2)] for t in pool
        ]
        cg_n, cr_n = certify.EQ_MESH[problem]
        pd = certify.compute_point(problem, math.pi / 3, cg_n, cr_n)
        ref["corner"][problem] = {
            "cg_n": cg_n, "cr_n": cr_n,
            "lam1": _bracket(pd.lam1), "lam2": _bracket(pd.lam2),
        }
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as d, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(["prove", "--problem", problem, "--quick", "--out", d])
            raw = (Path(d) / "certificate.json").read_bytes()
        cert = json.loads(raw)
        ref["prove_quick"][problem] = {
            "equilateral": [cert["step2"]["equilateral_lower"], cert["step2"]["equilateral_upper"]],
            "margin_step2": cert["step2"]["margin"],
            "step3_f_hi": cert["step3"]["f_hi"],
            "sha256": hashlib.sha256(raw).hexdigest(),
        }
        print(f"{problem}: {len(pool)} sweep angles", flush=True)
    with open(OUT, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
