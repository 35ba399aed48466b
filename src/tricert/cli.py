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
from pathlib import Path

from .bounds import BracketError, bracket as eig_bracket, corrected_lower
from .certify import (
    EQ_MESH,
    PAPER_EPSILON,
    PAPER_N2,
    CertifyError,
    RunConfig,
    compute_points,
    run_proof,
    single_blas_thread,
)
from .eigsolve import EigensolveError, ground_rayleigh, solve_lowest, verify_enclosure
from .fem import assemble, build_space
from .geometry import triangle_from_angle, triangle_from_vertex
from .mesh import uniform_subdivide
from .rounding import Interval

SWEEP_COLUMNS = ("theta", "lambda1_lo", "lambda1_hi")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tricert",
        description="Certified eigenvalue bounds and extremality proofs "
        "for unit-diameter triangles.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def meshes(sp):
        sp.add_argument("--cg-n", type=int, default=96,
                        help="conforming mesh subdivision (default 96)")
        sp.add_argument("--cr-n", type=int, default=64,
                        help="nonconforming mesh subdivision (default 64)")

    def common(sp):
        sp.add_argument(
            "--problem",
            choices=("dirichlet", "cr-constant"),
            required=True,
            help="dirichlet: zero-trace eigenproblem; cr-constant: "
            "edge-mean eigenproblem behind the interpolation constant",
        )
        meshes(sp)
        sp.add_argument("--jobs", type=int, default=1,
                        help="parallel point solves (default 1)")
        sp.add_argument("--out", type=Path, default=None, metavar="DIR",
                        help="output directory (sweep defaults to stdout)")

    sp = sub.add_parser("prove", help="run the three-step extremality proof")
    common(sp)
    sp.add_argument("--epsilon", type=float, default=None,
                    help="corner-interval half width (default: published value)")
    sp.add_argument("--n2", type=int, default=None,
                    help="corner-interval subdivisions (default: published value)")
    sp.add_argument("--schedule", default="paper", metavar="FILE|paper",
                    help="breakpoint schedule: 'paper' or a JSON file of angles")
    sp.add_argument("--eq-cg-n", type=int, default=None,
                    help="conforming subdivision for the corner reference bracket")
    sp.add_argument("--eq-cr-n", type=int, default=None,
                    help="nonconforming subdivision for the corner reference bracket")
    sp.add_argument("--quick", action="store_true",
                    help="desk-scale preset: 32/32 meshes, coarse schedule, n2=10")
    sp.add_argument("--paper-config", action="store_true",
                    help="assert the effective configuration is the published one")
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


def cmd_prove(args) -> int:
    if args.paper_config:
        problems = []
        if args.quick:
            problems.append("--quick")
        if args.schedule != "paper":
            problems.append(f"--schedule {args.schedule}")
        if (args.cg_n, args.cr_n) != (96, 64):
            problems.append(f"meshes {args.cg_n}/{args.cr_n}")
        if args.epsilon is not None and args.epsilon != PAPER_EPSILON[args.problem]:
            problems.append(f"--epsilon {args.epsilon}")
        if args.n2 is not None and args.n2 != PAPER_N2[args.problem]:
            problems.append(f"--n2 {args.n2}")
        eq_cg_n, eq_cr_n = EQ_MESH[args.problem]
        if args.eq_cg_n is not None and args.eq_cg_n != eq_cg_n:
            problems.append(f"--eq-cg-n {args.eq_cg_n}")
        if args.eq_cr_n is not None and args.eq_cr_n != eq_cr_n:
            problems.append(f"--eq-cr-n {args.eq_cr_n}")
        if problems:
            raise ValueError(
                "--paper-config given but the configuration deviates: "
                + "; ".join(problems)
            )

    config = RunConfig(
        problem=args.problem,
        cg_n=args.cg_n,
        cr_n=args.cr_n,
        epsilon=args.epsilon,
        n2=args.n2,
        schedule=args.schedule,
        eq_cg_n=args.eq_cg_n,
        eq_cr_n=args.eq_cr_n,
        jobs=args.jobs,
        quick=args.quick,
    )
    config.schedule_obj()  # surface schedule file problems as config errors

    cert = run_proof(args.problem, config)

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

    # one BLAS thread, as in compute_point: the printed bits must not
    # depend on the machine's core count
    with single_blas_thread():
        mesh_cr = uniform_subdivide(tri, args.cr_n)
        ops_cr = assemble(build_space(mesh_cr, "cr", "edge-mean"))
        enc_cr = solve_lowest(ops_cr, 2)
        enc_cr = [verify_enclosure(enc_cr[0], (enc_cr[1],)), enc_cr[1]]
        ops_cg = assemble(build_space(uniform_subdivide(tri, args.cg_n), "cg", "edge-mean"))
        cg = ground_rayleigh(ops_cg, corrected_lower(enc_cr[0], mesh_cr.h))
    lam1 = eig_bracket(enc_cr, cg.rho, mesh_cr.h)[0]

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
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (CertifyError, EigensolveError, BracketError) as exc:
        # only reachable from sweep/constants; prove folds these into
        # the certificate verdict
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
