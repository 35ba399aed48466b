"""Command-line front end.

Three subcommands:

* ``prove``     run the full three-step extremality proof for one
                problem and write certificate.json plus ledger.csv.
* ``sweep``     certified lambda_1 brackets along a list of angles,
                as CSV (the data behind the eigenvalue-vs-angle curve).
* ``constants`` certified two-sided bound for the interpolation
                constant C(T) of a given triangle.

Exit codes: 0 proof verdict "proven"; 1 verdict "failed" (including
numerical aborts, which land in the certificate as a diagnosed failure);
2 configuration errors.  The code is a function of the verdict only.

Nothing here is randomized: iterative eigensolves start from a fixed
deterministic vector, so runs with equal configuration produce
byte-identical certificates.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import fields
from pathlib import Path

# bench/run.py's tracer wraps eig_bracket, solve_lowest, verify_enclosure,
# assemble, build_space and uniform_subdivide on this module, so they stay
# importable from it, though unused here
from .bounds import BracketError, bracket as eig_bracket  # noqa: F401
from .certify import (
    CertifyError,
    compute_points,
    edge_mean_lambda1,
    paper_config,
    paper_schedule,
    quick_config,
    run_proof,
    schedule_from_file,
)
from .eigsolve import EigensolveError, solve_lowest, verify_enclosure  # noqa: F401
from .fem import assemble, build_space  # noqa: F401
from .geometry import triangle_from_angle, triangle_from_vertex
from .mesh import uniform_subdivide  # noqa: F401
from .rounding import Interval

SWEEP_COLUMNS = ("theta", "lambda1_lo", "lambda1_hi")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tricert",
        description="Certified eigenvalue bounds and extremality proofs "
        "for unit-diameter triangles.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def meshes(sp, cg_n=96, cr_n=64):
        sp.add_argument("--cg-n", type=int, default=cg_n,
                        help=f"conforming mesh subdivision (default {cg_n or 'from the preset'})")
        sp.add_argument("--cr-n", type=int, default=cr_n,
                        help=f"nonconforming mesh subdivision (default {cr_n or 'from the preset'})")

    def common(sp, **mesh_defaults):
        sp.add_argument(
            "--problem",
            choices=("dirichlet", "cr-constant"),
            required=True,
            help="dirichlet: zero-trace eigenproblem; cr-constant: "
            "edge-mean eigenproblem behind the interpolation constant",
        )
        meshes(sp, **mesh_defaults)
        sp.add_argument("--jobs", type=int, default=1,
                        help="parallel point solves (default 1)")
        sp.add_argument("--out", type=Path, default=None, metavar="DIR",
                        help="output directory (sweep defaults to stdout)")

    # a prove flag left unset keeps the preset's value (the published run,
    # or --quick's); each flag given replaces that one value
    sp = sub.add_parser("prove", help="run the three-step extremality proof")
    common(sp, cg_n=None, cr_n=None)
    sp.add_argument("--epsilon", type=float, default=None,
                    help="corner-interval half width (default from the preset)")
    sp.add_argument("--n2", type=int, default=None,
                    help="corner-interval subdivisions (default from the preset)")
    sp.add_argument("--schedule", default=None, metavar="FILE|paper",
                    help="breakpoint schedule: 'paper' or a JSON file of angles "
                    "(default from the preset)")
    sp.add_argument("--eq-cg-n", type=int, default=None,
                    help="conforming subdivision for the corner reference bracket")
    sp.add_argument("--eq-cr-n", type=int, default=None,
                    help="nonconforming subdivision for the corner reference bracket")
    sp.add_argument("--quick", action="store_true",
                    help="start from the desk-scale preset (32/32 meshes, coarse "
                    "schedule, n2=10) instead of the published run; other flags "
                    "apply on top of it")
    sp.add_argument("--paper-config", action="store_true",
                    help="reject any deviation from the published run")
    sp.set_defaults(func=cmd_prove)

    sp = sub.add_parser("sweep", help="certified lambda_1 brackets along angles")
    common(sp)
    sp.add_argument("--theta", action="append", default=[], metavar="LIST",
                    help="comma-separated angles in radians; repeatable")
    sp.add_argument("--theta-range", nargs=3, default=None,
                    metavar=("START", "STOP", "COUNT"),
                    help="COUNT equally spaced angles from START to STOP inclusive")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("constants", help="certified interpolation-constant bracket")
    meshes(sp)
    sp.add_argument("--theta", type=float, default=None,
                    help="apex angle parameter of the arc family, in (0, pi)")
    sp.add_argument("--bx", type=float, default=None,
                    help="apex x (with --by; apex must lie in the closed lens)")
    sp.add_argument("--by", type=float, default=None, help="apex y")
    sp.set_defaults(func=cmd_constants)
    return p


# ---------------------------------------------------------------------------
# prove


# RunConfig fields that a prove flag of the same name sets
_PRESET_FLAGS = ("cg_n", "cr_n", "epsilon", "n2", "schedule", "eq_cg_n", "eq_cr_n")


def _flag(name: str, value) -> str:
    """A RunConfig field as the command line would give it."""
    if name == "quick":
        return "--quick"
    if name == "schedule":
        value = value.provenance
    return f"--{name.replace('_', '-')} {value}"


def cmd_prove(args) -> int:
    changes = {f: getattr(args, f) for f in _PRESET_FLAGS if getattr(args, f) is not None}
    if "schedule" in changes:
        path = changes["schedule"]
        changes["schedule"] = (
            paper_schedule(args.problem) if path == "paper" else schedule_from_file(path)
        )
    preset = quick_config if args.quick else paper_config
    config = preset(args.problem, jobs=args.jobs, **changes)

    if args.paper_config:
        paper = paper_config(args.problem, jobs=args.jobs)
        deviations = [
            _flag(f.name, getattr(config, f.name))
            for f in fields(config)
            if getattr(config, f.name) != getattr(paper, f.name)
        ]
        if deviations:
            raise ValueError(
                "--paper-config given but the configuration deviates: "
                + "; ".join(deviations)
            )

    cert = run_proof(config)

    out_dir = args.out if args.out is not None else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    cert_path = out_dir / "certificate.json"
    ledger_path = out_dir / "ledger.csv"
    cert.to_json(cert_path)
    cert.write_csv(ledger_path)

    print(f"problem:  {cert.problem}")
    print(f"verdict:  {cert.verdict}")
    if cert.step2:
        print(
            f"step 2:   min extended lower {cert.step2.get('lower_min')} vs "
            f"corner upper {cert.step2.get('equilateral_upper')}"
        )
    if "f_hi" in cert.step3:
        print(f"step 3:   derivative range [{cert.step3['f_lo']}, {cert.step3['f_hi']}]")
    print(f"wrote:    {cert_path}")
    print(f"wrote:    {ledger_path}")
    if cert.verdict != "proven" and cert.failure is not None:
        print(
            f"failure [{cert.failure['stage']}]: {cert.failure['detail']}",
            file=sys.stderr,
        )
    return 0 if cert.verdict == "proven" else 1


# ---------------------------------------------------------------------------
# sweep


def _parse_sweep_angles(args) -> list[float]:
    thetas: list[float] = []
    for chunk in args.theta:
        for tok in chunk.split(","):
            tok = tok.strip()
            if tok:
                thetas.append(float(tok))
    if args.theta_range is not None:
        start, stop, count = args.theta_range
        start, stop, count = float(start), float(stop), int(count)
        if count < 1:
            raise ValueError("theta range count must be >= 1")
        if count == 1:
            thetas.append(start)
        else:
            step = (stop - start) / (count - 1)
            thetas.extend(start + i * step for i in range(count - 1))
            thetas.append(stop)
    if not thetas:
        raise ValueError("no angles given: use --theta or --theta-range")
    for t in thetas:
        if not (0.0 < t <= math.pi / 3):
            raise ValueError(f"sweep angles must lie in (0, pi/3], got {t}")
    return sorted(set(thetas))


def cmd_sweep(args) -> int:
    thetas = _parse_sweep_angles(args)
    points = compute_points(args.problem, thetas, args.cg_n, args.cr_n, args.jobs)

    rows = [
        (repr(t), repr(points[t].lam1.lower), repr(points[t].lam1.upper))
        for t in thetas
    ]
    if args.out is None:
        w = csv.writer(sys.stdout)
        w.writerow(SWEEP_COLUMNS)
        w.writerows(rows)
    else:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "sweep.csv"
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(SWEEP_COLUMNS)
            w.writerows(rows)
        print(f"wrote: {path}")
    return 0


# ---------------------------------------------------------------------------
# constants


def _constants_triangle(args):
    by_vertex = args.bx is not None or args.by is not None
    if (args.theta is None) == (not by_vertex):
        raise ValueError("give exactly one of --theta or --bx/--by")
    if args.theta is not None:
        if not (0.0 < args.theta < math.pi):
            raise ValueError(f"theta must lie in (0, pi), got {args.theta}")
        return triangle_from_angle(args.theta)
    if args.bx is None or args.by is None:
        raise ValueError("--bx and --by must be given together")
    bx, by = args.bx, args.by
    if not (by > 0.0):
        raise ValueError(f"apex must lie strictly above the base, got by={by}")
    if math.hypot(bx, by) > 1.0 or math.hypot(bx - 1.0, by) > 1.0:
        raise ValueError(
            "apex outside the supported region: both base corners must be "
            "within distance 1 (normalize the triangle so its longest side "
            "is the segment (0,0)-(1,0), or use --theta)"
        )
    return triangle_from_vertex(bx, by)


def cmd_constants(args) -> int:
    tri = _constants_triangle(args)
    lam1 = edge_mean_lambda1(tri, args.cg_n, args.cr_n)
    c_iv = Interval(1.0) / Interval(lam1.lower, lam1.upper).sqrt()
    print(f"triangle: apex ({tri.bx!r}, {tri.by!r}), diameter {tri.diameter!r}")
    print(f"lambda1:  [{lam1.lower!r}, {lam1.upper!r}]")
    print(f"C:        [{c_iv.lo!r}, {c_iv.hi!r}]")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CertifyError, EigensolveError, BracketError) as exc:
        # only reachable from sweep/constants; prove folds these into
        # the certificate verdict.  First, as BracketError is a ValueError
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
