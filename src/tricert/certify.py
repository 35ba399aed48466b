"""Proof drivers and certificate assembly.

The extremality proof for each problem (Dirichlet ground state, and the
edge-mean problem governing the interpolation constant) runs in three
steps over the normalized family T(theta):

1. Reduction (no computation): moving the apex vertically off the unit
   circle can only increase the first eigenvalue, so minimality over the
   normalized lens reduces to the arc theta in (0, pi/3].
2. Away from the corner: over I = (0, pi/3 - epsilon], certified point
   brackets at schedule breakpoints are extended across each subinterval
   by the eigenvalue perturbation factors; the minimum extended lower
   bound must exceed the certified upper bound at theta = pi/3.
3. Near the corner: over J = [pi/3 - epsilon, pi/3], the derivative of
   lambda_1 with respect to theta is enclosed per subinterval by the
   discrete derivative functional of a mapped reference eigenfunction
   plus the certified Err envelope; a strictly negative upper end proves
   lambda_1 keeps decreasing into the corner.  Validity requires
   lambda_1 to stay simple on J, which step 3 certifies first.

Steps 2 and 3 extend point brackets across a subinterval by one rule,
:func:`_extend`; each J subinterval is extended once, by the simplicity
check, and the derivative range reads those extended brackets.

"Proven" therefore means: lambda_1(theta) > lambda_1(pi/3) on I, and
lambda_1 strictly decreasing on J, i.e. the equilateral triangle is the
strict minimizer (equivalently, the interpolation-constant maximizer).

Everything reported in a Certificate is backed by outward-rounded
arithmetic on certified enclosures.  The per-interval ledger records
what each step concluded on each subinterval: the extended lambda_1
lower and lambda_2 lower ends (with the point's lambda_1 upper end) on
a step-2 row, the extended brackets and the derivative range and Err
envelope on a step-3 row.  It does not record what those were computed
from: the point brackets before extension, and the gram triples and
masses of the J nodes (only the corner's triple is kept).  Re-checking
a row therefore needs the point data, which today means rerunning the
point solves.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import json
import math
import multiprocessing
import platform
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, replace

import numpy as np
import scipy

from .bounds import (
    LEMMA_CONST,
    BracketError,
    DerivativePoint,
    EigBracket,
    F_interval,
    F_of,
    bracket,
    corrected_lower,
    err_bound,
    eta_range,
)
# bench/run.py's tracer wraps quad_form_interval on this module, so it
# stays importable from it, though unused here
from .eigsolve import (  # noqa: F401
    EigensolveError,
    ground_mode,
    quad_form_interval,
    rayleigh_bound,
    solve_lowest,
    verify_enclosure,
)
from .fem import INVARIANT, ReferenceMap, assemble, build_space
from .geometry import perturbation_factor_bounds, triangle_from_angle, triangle_from_vertex
from .mesh import uniform_subdivide
from .rounding import Interval, cos_interval, cot_interval, dn, sin_interval, up

PROBLEMS = ("dirichlet", "cr-constant")
_BC = {"dirichlet": "dirichlet", "cr-constant": "edge-mean"}

PAPER_EPSILON = {"dirichlet": math.pi / 1500, "cr-constant": math.pi / 3000}
PAPER_N2 = {"dirichlet": 200, "cr-constant": 100}
# corner-bracket meshes: the sweep meshes' eigenvalue defect at pi/3
# alone exceeds the step-2 margin, so the corner has finer meshes of its own
EQ_MESH = {"dirichlet": (288, 128), "cr-constant": (192, 32)}

CERT_SCHEMA = "triangle-extremality-certificate/1"


class CertifyError(RuntimeError):
    """A proof step could not be completed; message carries the interval."""


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class Schedule:
    """Strictly increasing breakpoints in (0, pi/3].

    Algorithm 1 reads them as right endpoints of the half-open cover
    (theta_{i-1}, theta_i] of (0, theta_N], with theta_0 = 0 implicit.
    """

    breakpoints: tuple[float, ...]
    provenance: str = "custom"

    def __post_init__(self):
        bp = self.breakpoints
        if not bp:
            raise ValueError("schedule needs at least one breakpoint")
        if any(not (0.0 < t <= math.pi / 3) for t in bp):
            raise ValueError("breakpoints must lie in (0, pi/3]")
        if any(b <= a for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")


def paper_schedule(problem: str) -> Schedule:
    """The published subdivision of I for each problem.

    Scaled fractions of pi/3: steps of 0.02 over the bulk, then
    geometrically finer panels approaching the corner, ending exactly at
    pi/3 - epsilon.
    """
    _check_problem(problem)
    if problem == "dirichlet":
        fracs = (
            [0.02 * i for i in range(1, 46)]
            + [0.9 + 0.01 * (i - 45) for i in range(46, 51)]
            + [0.95 + 0.001 * (i - 50) for i in range(51, 91)]
            + [0.99 + 0.0001 * (i - 90) for i in range(91, 171)]
        )
    else:
        fracs = (
            [0.02 * i for i in range(1, 41)]
            + [0.8 + 0.001 * (i - 40) for i in range(41, 231)]
            + [0.99 + 0.0001 * (i - 230) for i in range(231, 321)]
        )
    pts = [math.pi / 3 * f for f in fracs]
    pts[-1] = math.pi / 3 - PAPER_EPSILON[problem]  # exact float butt joint with J
    return Schedule(tuple(pts), provenance=f"paper-{problem}")


def quick_schedule(problem: str) -> Schedule:
    """Coarse desk-scale cover of I; completes in minutes, margins not guaranteed."""
    _check_problem(problem)
    fracs = [i / 20 for i in range(1, 20)] + [0.96, 0.97, 0.98, 0.99, 0.995]
    pts = [math.pi / 3 * f for f in fracs]
    pts.append(math.pi / 3 - PAPER_EPSILON[problem])
    return Schedule(tuple(pts), provenance=f"quick-{problem}")


def schedule_from_file(path: str) -> Schedule:
    """JSON file holding a list of breakpoints (radians)."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise ValueError(f"cannot read schedule file {path}: {exc}") from exc
    if not isinstance(data, list) or not all(
        isinstance(t, (int, float)) and not isinstance(t, bool) for t in data
    ):
        raise ValueError(f"schedule file {path} must hold a JSON list of angles")
    return Schedule(tuple(float(t) for t in data), provenance=f"file:{path}")


def _check_problem(problem: str) -> None:
    if problem not in PROBLEMS:
        raise ValueError(f"problem must be one of {PROBLEMS}, got {problem!r}")


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Everything a proof run depends on, fully resolved.

    :func:`paper_config` and :func:`quick_config` build the two presets;
    ``quick`` records only which one a run started from.
    """

    problem: str
    cg_n: int
    cr_n: int
    epsilon: float
    n2: int
    schedule: Schedule
    eq_cg_n: int          # corner-bracket meshes
    eq_cr_n: int
    jobs: int = 1
    quick: bool = False

    def __post_init__(self):
        _check_problem(self.problem)
        for name in ("cg_n", "cr_n", "eq_cg_n", "eq_cr_n", "n2", "jobs"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 1):
                raise ValueError(f"{name} must be a positive integer, got {v}")
        if not (0.0 < self.epsilon < math.pi / 3):
            raise ValueError(f"epsilon must lie in (0, pi/3), got {self.epsilon}")
        end = self.schedule.breakpoints[-1]
        if end < math.pi / 3 - self.epsilon:
            raise ValueError(
                f"schedule ends at {end} but the corner interval starts at "
                f"{math.pi / 3 - self.epsilon}; the union would not cover (0, pi/3]"
            )


def paper_config(problem: str, **changes) -> RunConfig:
    """The published run of ``problem``, with ``changes`` applied."""
    sched = paper_schedule(problem)
    eq_cg_n, eq_cr_n = EQ_MESH[problem]
    preset = RunConfig(
        problem, 96, 64, PAPER_EPSILON[problem], PAPER_N2[problem], sched, eq_cg_n, eq_cr_n
    )
    return replace(preset, **changes)


def quick_config(problem: str, **changes) -> RunConfig:
    """The desk-scale preset of ``problem`` (32/32 meshes, the coarse
    schedule, n2 = 10), with ``changes`` applied."""
    sched = quick_schedule(problem)
    preset = RunConfig(
        problem, 32, 32, PAPER_EPSILON[problem], 10, sched, 64, 32, quick=True
    )
    return replace(preset, **changes)


# ---------------------------------------------------------------------------
# certified point data


@dataclass(frozen=True)
class PointData:
    """Certified quantities at one angle (no vectors kept; pickle-friendly).

    Gram entries are raw quadratic forms of the unnormalized conforming
    ground vector; mass, its certified M-form, carries the normalization.
    lam2 certifies only its lower end; its upper end is +inf.
    """

    theta: float
    cg_n: int
    cr_n: int
    lam1: EigBracket
    lam2: EigBracket
    gram_xx: tuple[float, float]
    gram_xy: tuple[float, float]
    gram_yy: tuple[float, float]
    mass: tuple[float, float]


_T_REF = triangle_from_vertex(0.0, 1.0)

# Part layouts (ReferenceMap.with_halves) besides the default mirror
# halves: the whole space as one part, and the conforming part invariant
# under the symmetry group of the equilateral triangle
_WHOLE = ((0, 1),)
_INVARIANT = ((INVARIANT,),)

# The reference map of each space that some entry of the cache holds, under
# any part layout, for as long as one does: another layout of the space
# takes its parts from that map, with no second assembly
_LIVE_MAPS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@functools.lru_cache(maxsize=8)
def _reference_operators(n: int, family: str, bc: str, parts=None) -> ReferenceMap:
    """Operators on the n-fold mesh of T_ref, built once per process and
    part layout.

    Each entry is the :class:`ReferenceMap` of one space with the parts
    it is solved in.  By default (``parts`` None) these are the
    mirror-parity halves of a proof space, whatever its size: both for a
    CR space, the symmetric one for a CG space (:mod:`eigsolve`).  A
    point at fl(pi/3) asks for the CG space with its part invariant under
    the equilateral triangle's symmetry group, ``((INVARIANT,),)``, and
    :func:`edge_mean_lambda1` for ``((0, 1),)``, the whole space as one
    part, which maps to a triangle of any apex.
    :meth:`ReferenceMap.with_halves` stores each part in the band order
    in which every solve of it factorises A - sigma M by banded Cholesky,
    so that order is fixed here, once per space and layout.  A space is
    assembled once while the cache holds it in any layout: a second
    layout takes its parts from that map (``_LIVE_MAPS``), whose arrays
    both entries then share.

    A proof asks for five entries: the two sweep spaces, the CG one also
    in the invariant layout for the last J node at fl(pi/3), and the two
    corner spaces, whose CG space is asked for in the invariant layout
    alone.  The quick proofs share their CR 32 space between sweep and
    corner, so both quick proofs need eight entries, and a process that
    runs both builds each space once.  Both paper-config proofs would need
    ten, but the command line runs one proof per process, and so do the
    acceptance tests; there no entry is evicted.  The two whole-part
    entries of ``tricert constants`` live in a process of their own too.
    Every caller shares the cached arrays, so they are only read: a
    mapped matrix shares their index arrays and holds values of its own
    (:meth:`ReferenceMap.mapped`).  Mesh, space and
    assembly are built through this module's names, so wrapping them
    here sees every build.

    Every step of a build is array code.  A cold build in a fresh process
    took, in ms, with mesh numbering, slave elimination, side differences
    and band widths in Python loops -> in array code (median of 9
    alternating processes on a shared 2-vCPU VM, whose speed drifts by up
    to a third between runs):

        space     Dirichlet       edge-mean
        CG 32      20 ->  14       30 ->  21
        CR 32      28 ->  22       48 ->  30
        CG 64      39 ->  26       69 ->  40
        CR 64      59 ->  32      143 ->  63
        CG 96      64 ->  43      159 ->  77
        CR 128    239 -> 151
        CG 192                    587 -> 299
        CG 288    622 -> 352

    The corner CG spaces, asked for in the invariant layout alone, build
    in 176 ms (CG 288 Dirichlet) and 159 ms (CG 192 edge-mean), against
    201 and 198 ms with the symmetric half (median of 5 fresh processes
    each, run together, apart from the table's).

    At jobs > 1, :func:`compute_points` builds every map its points ask
    for here, in the calling process, before it forks its pool, so that
    no worker builds one.
    """
    if parts is None:
        parts = ((0,), (1,)) if family == "cr" else ((0,),)
    ref = _LIVE_MAPS.get((n, family, bc))
    if ref is None:
        ref = ReferenceMap.of(assemble(build_space(uniform_subdivide(_T_REF, n), family, bc)))
    ref = ref.with_halves(parts)
    _LIVE_MAPS[n, family, bc] = ref
    return ref


def _reference(n: int, family: str, bc: str, parts) -> ReferenceMap:
    """The cached reference map (:func:`_reference_operators`) with the
    part layout ``parts``, or the default one where ``parts`` is None.

    A layout is passed on to the cache only when one is given, because
    the cache keys a call by its arguments as written: spelling out the
    default halves would key them apart from every other caller's and
    build each proof space twice.
    """
    if parts is None:
        return _reference_operators(n, family, bc)
    return _reference_operators(n, family, bc, parts)


def _layouts(theta: float) -> tuple:
    """The part layouts (CR, CG) of the point solve at ``theta``, None
    for the default mirror halves.

    The symmetric half holds lambda_2 on (0, pi/3], every angle of the
    proofs (eigsolve); beyond, as at pi/2, both spaces are solved whole.
    At fl(pi/3), the equilateral corner, the conforming ground mode is
    solved in the part invariant under the triangle's whole symmetry
    group, a third of the symmetric half (eigsolve).
    """
    if theta > math.pi / 3:
        return _WHOLE, _WHOLE
    return None, _INVARIANT if theta == math.pi / 3 else None


# Thread-count entries of the OpenBLAS builds in the NumPy and SciPy wheels
# (SciPy's LP64 build, NumPy's ILP64 build), then of a system OpenBLAS.
_OPENBLAS_ENTRIES = (
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS loaded in this
    process; empty where none can be found (then nothing is controlled)."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted(
                {line.split(maxsplit=5)[-1].strip() for line in f if "openblas" in line.lower()}
            )
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_ENTRIES:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


def _one_blas_thread() -> list:
    """Set every controlled OpenBLAS to one thread, and return the (set,
    count) pairs of those that had another count.

    A count that is 1 already is not set: OpenBLAS shuts its thread pool
    down before a fork, and starts it again at the next count set, in
    parent and child alike, and the new threads spin for a while before
    they sleep: 0.13 s of CPU for the two OpenBLAS libraries of NumPy and
    SciPy, which on two cores took 0.06 to 0.1 s from the next point
    solve of a forked pool worker.
    """
    changed = [(set_, n) for get, set_ in _openblas_controls() if (n := get()) != 1]
    for set_, _ in changed:
        set_(1)
    return changed


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with one thread in every controlled OpenBLAS, then
    restore the caller's thread counts.

    A multithreaded BLAS may split a reduction differently with each
    thread count, so the certified bits would depend on the machine's
    core count; parallelism comes from the point-solve pool instead.
    The counts are process-wide: threads of one process that enter this
    concurrently may restore each other's counts early.
    """
    changed = _one_blas_thread()
    try:
        yield
    finally:
        for set_, n in changed:
            set_(n)


def certified_solve(tri, bc: str, cg_n: int, cr_n: int, cr_parts=None, cg_parts=None):
    """The certified lambda_1 and lambda_2 brackets (:class:`EigBracket`)
    of ``tri`` from the CR space of the ``cr_n``-fold mesh and the
    conforming space of the ``cg_n``-fold one, with the conforming
    :class:`RayleighBound` behind the upper end of lambda_1, which
    carries the gram forms of its vector too.

    Both spaces are mapped from the cached reference spaces, with the
    part layouts ``cr_parts`` and ``cg_parts``, None for the default
    (:func:`_reference`).  The parts steer the solver, every enclosure
    and Rayleigh bound is certified on the whole operators, and the CR
    parts past the first are certified to hold no eigenvalue below
    lambda_2's lower end (:func:`solve_lowest`).  Callers run it under
    :func:`single_blas_thread`.
    """
    ops_cr = _reference(cr_n, "cr", bc, cr_parts).mapped(tri)
    enc_cr = solve_lowest(ops_cr, 2)
    enc_cr = [verify_enclosure(enc_cr[0], (enc_cr[1],)), enc_cr[1]]
    # the bracket needs only the CR mesh size; releasing the CR operators
    # keeps them out of the memory peak of the conforming solve
    h_cr = ops_cr.space.mesh.h
    del ops_cr

    # the conforming mode is solved in the first part alone, and the whole
    # operators are mapped only then, with the grams in the same pass, so
    # that none of them adds to the memory peak of the solve
    ref_cg = _reference(cg_n, "cg", bc, cg_parts)
    u = ground_mode(ref_cg.parts(tri)[0], corrected_lower(enc_cr[0], h_cr))
    cg = rayleigh_bound(ref_cg.grams(tri), u)
    lam1, lam2 = bracket(enc_cr, cg.rho, h_cr)
    return lam1, lam2, cg


@single_blas_thread()
def compute_point(problem: str, theta: float, cg_n: int, cr_n: int) -> PointData:
    """Solve both discrete problems at one angle and certify the brackets
    (:func:`certified_solve`), in the parts of the cached reference
    spaces that :func:`_layouts` picks for ``theta``, with the gram forms
    of the conforming ground vector.
    """
    _check_problem(problem)
    tri = triangle_from_angle(theta)
    lam1, lam2, cg = certified_solve(tri, _BC[problem], cg_n, cr_n, *_layouts(theta))
    xx, xy, yy = cg.grams
    mm = cg.mass_form
    return PointData(
        theta, cg_n, cr_n, lam1, lam2,
        (xx.lo, xx.hi), (xy.lo, xy.hi), (yy.lo, yy.hi), (mm.lo, mm.hi),
    )


@single_blas_thread()
def edge_mean_lambda1(tri, cg_n: int, cr_n: int) -> EigBracket:
    """The certified lambda_1 bracket of the edge-mean problem on ``tri``,
    a triangle of any apex (``tricert constants``): :func:`certified_solve`
    on the whole spaces as their one part."""
    return certified_solve(tri, "edge-mean", cg_n, cr_n, _WHOLE, _WHOLE)[0]


def _point_worker(task: tuple[int, str, float, int, int]):
    idx, problem, theta, cg_n, cr_n = task
    try:
        return idx, compute_point(problem, theta, cg_n, cr_n)
    except (EigensolveError, BracketError, ValueError) as exc:
        raise CertifyError(f"point solve failed at theta={theta!r}: {exc}") from exc


def _build_reference_spaces(tasks: list[tuple[int, str, float, int, int]]) -> None:
    """Build the reference maps of the points ``tasks`` in this process,
    in every part layout their solves ask for (:func:`_layouts`): the
    mirror halves, and the invariant conforming part where fl(pi/3) is
    among them.

    For each layout the conforming map comes first: its build has the
    larger memory transient, which then runs while the cache holds less.
    Traced, the edge-mean sweep spaces (CG 96, CR 64) peak at 12.2 MB in
    this order and at 14.6 MB in the other, 9.3 MB of which stay cached.
    A second layout of a space is taken from its first map, with no
    second assembly (:func:`_reference_operators`).  An unknown problem or
    a map that cannot be built is reported by the first point that asks
    for it, solved here, as it is at jobs=1, whichever space failed:
    :func:`certified_solve` builds the CR space first.
    """
    first = {}
    for task in tasks:
        first.setdefault(_layouts(task[2]), task)
    for (cr_parts, cg_parts), task in first.items():
        _, problem, _, cg_n, cr_n = task
        try:
            _reference(cg_n, "cg", _BC[problem], cg_parts)
            _reference(cr_n, "cr", _BC[problem], cr_parts)
        except (KeyError, ValueError):
            _point_worker(task)
            raise


def _pool_context():
    """The fork context where the platform has one, else the default:
    forked workers inherit the spaces this process built.  Python 3.14
    makes forkserver the default on Linux, under which each worker would
    build both spaces again."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def compute_points(
    problem: str, thetas, cg_n: int, cr_n: int, jobs: int = 1
) -> dict[float, PointData]:
    """Certified point data for every angle, optionally in parallel.

    At jobs > 1 the reference maps of the points are built in this
    process before the pool starts (:func:`_build_reference_spaces`).
    Its workers are forked (:func:`_pool_context`), so each inherits the
    maps and builds none; on a platform that cannot fork, each worker
    builds them again in its first point.  This process sets its BLAS to
    one thread first (:func:`_one_blas_thread`) and keeps it there: the
    forked workers inherit that count and set none, and setting the
    caller's count back after the pool would restart OpenBLAS's threads,
    whose spin took the CPU of whatever ran next (a setup probe of the
    benchmark, or the corner solve of :func:`run_proof`).  Results are
    merged by task index, so the mapping does not depend on completion
    order or on the worker count.
    """
    if min(cg_n, cr_n, jobs) < 1:
        raise ValueError(f"cg_n, cr_n and jobs must be >= 1, got {cg_n}, {cr_n}, {jobs}")
    uniq = sorted(set(float(t) for t in thetas))
    tasks = [(i, problem, t, cg_n, cr_n) for i, t in enumerate(uniq)]
    out: dict[float, PointData] = {}
    if jobs > 1 and len(tasks) > 1:
        _one_blas_thread()
        _build_reference_spaces(tasks)
        with ProcessPoolExecutor(max_workers=jobs, mp_context=_pool_context()) as pool:
            for idx, pd in pool.map(_point_worker, tasks, chunksize=4):
                out[uniq[idx]] = pd
    else:
        for task in tasks:
            idx, pd = _point_worker(task)
            out[uniq[idx]] = pd
    return out


# ---------------------------------------------------------------------------
# ledger rows


@dataclass(frozen=True)
class LedgerRow:
    """One certified subinterval; F columns empty for step-2 rows."""

    i: int
    theta_lo: float
    theta_hi: float
    lambda1_lo: float
    lambda1_hi: float
    lambda2_lo: float
    f_lo: float | None = None
    f_hi: float | None = None
    err: float | None = None


CSV_COLUMNS = (
    "i", "theta_lo", "theta_hi",
    "lambda1_lo", "lambda1_hi", "lambda2_lo",
    "F_lo", "F_hi", "Err",
)


def _fmt(x: float | int | None) -> str:
    return "" if x is None else repr(x)


def write_ledger_csv(path, rows: list[LedgerRow]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_COLUMNS)
        w.writerows([_fmt(x) for x in astuple(r)] for r in rows)


def _row_dict(r: LedgerRow) -> dict:
    return dict(zip(CSV_COLUMNS, astuple(r)))


# ---------------------------------------------------------------------------
# extension of point brackets across a subinterval


@dataclass(frozen=True)
class Extension:
    """Point brackets pushed across [t_lo, t_hi]: the lambda_1 lower and
    upper and lambda_2 lower ends, scaled outward by the perturbation
    factors (flo, fhi) from the point's angle to the subinterval."""

    t_lo: float
    t_hi: float
    flo: float
    fhi: float
    lam1_lo: float
    lam1_hi: float
    lam2_lo: float


def _extend(i: int, pd: PointData, t_lo: float, t_hi: float) -> Extension:
    """The one extension rule of steps 2 and 3, for subinterval ``i``."""
    try:
        flo, fhi = perturbation_factor_bounds(pd.theta, t_lo, t_hi)
        return Extension(
            t_lo, t_hi, flo, fhi,
            (Interval(pd.lam1.lower) * Interval(flo)).lo,
            (Interval(pd.lam1.upper) * Interval(fhi)).hi,
            (Interval(pd.lam2.lower) * Interval(flo)).lo,
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise CertifyError(f"interval {i} (theta in [{t_lo!r}, {t_hi!r}]): {exc}") from exc


# ---------------------------------------------------------------------------
# algorithm 1: lower bound over I


@dataclass(frozen=True)
class Algorithm1Result:
    lower_min: float
    argmin_interval: int
    rows: list[LedgerRow]


def algorithm1(schedule: Schedule, points: dict[float, PointData]) -> Algorithm1Result:
    """Certified lower bound of lambda_1 over I = (0, last breakpoint].

    Each subinterval (theta_{i-1}, theta_i] gets the point bracket at its
    right endpoint, extended leftward by the infimum of the perturbation
    low factor over the subinterval (attained at an endpoint; the ratio
    monotonicity behind that is asserted per call, not assumed).
    ``points`` must hold every breakpoint.
    """
    rows = []
    lower_min = math.inf
    argmin = -1
    prev = 0.0
    for i, th in enumerate(schedule.breakpoints, start=1):
        pd = points[th]
        ext = _extend(i, pd, prev, th)
        if ext.lam1_lo > pd.lam1.lower:
            raise CertifyError(f"interval {i}: extension exceeded the point bracket")
        if ext.lam1_lo <= 0.0:
            raise CertifyError(f"interval {i}: extended lower bound not positive")
        rows.append(LedgerRow(i, prev, th, ext.lam1_lo, pd.lam1.upper, ext.lam2_lo))
        if ext.lam1_lo < lower_min:
            lower_min, argmin = ext.lam1_lo, i
        prev = th
    return Algorithm1Result(lower_min, argmin, rows)


# ---------------------------------------------------------------------------
# step 3: simplicity and derivative range over J


@dataclass(frozen=True)
class SimplicityEvidence:
    """Worst cases over J of the extended brackets, with those brackets:
    ``intervals`` holds one :class:`Extension` per J subinterval, in order."""

    lambda1_upper: float
    lambda2_lower: float
    intervals: tuple[Extension, ...]

    @property
    def separated(self) -> bool:
        return self.lambda1_upper < self.lambda2_lower


@dataclass(frozen=True)
class DerivativeRange:
    f_lo: float
    f_hi: float
    rows: list[LedgerRow]
    corner: DerivativePoint
    eta_max: float
    err_max: float


def j_nodes(epsilon: float, n2: int) -> list[float]:
    """Equal subdivision of J = [pi/3 - epsilon, pi/3] into n2 parts."""
    if not (0.0 < epsilon < math.pi / 3):
        raise ValueError(f"epsilon must lie in (0, pi/3), got {epsilon}")
    if n2 < 1:
        raise ValueError(f"n2 must be >= 1, got {n2}")
    start = math.pi / 3 - epsilon
    h = epsilon / n2
    nodes = [start + i * h for i in range(n2)] + [math.pi / 3]
    if any(b <= a for a, b in zip(nodes, nodes[1:])):
        raise ValueError("J subdivision too fine for float resolution")
    return nodes


def simplicity_check(
    epsilon: float, n2: int, points: dict[float, PointData]
) -> SimplicityEvidence:
    """Certified lambda_1 upper vs lambda_2 lower over all of J.

    Per subinterval, the left-endpoint brackets are pushed across by the
    perturbation factors; the evidence compares the worst cases and
    keeps every extension for :func:`algorithm2`.  Run for both
    problems, including the one whose simplicity is classical.
    ``points`` must hold every node of :func:`j_nodes`.
    """
    nodes = j_nodes(epsilon, n2)
    exts = tuple(
        _extend(i, points[t_lo], t_lo, t_hi)
        for i, (t_lo, t_hi) in enumerate(zip(nodes, nodes[1:]), start=1)
    )
    return SimplicityEvidence(
        max(e.lam1_hi for e in exts), min(e.lam2_lo for e in exts), exts
    )


def algorithm2(
    points: dict[float, PointData], simplicity: SimplicityEvidence
) -> DerivativeRange:
    """Certified range of dlambda_1/dtheta over J.

    Per subinterval [theta_i, theta_{i+1}] with the reference eigenpair
    solved at theta_i:

    * lambda_1, lambda_2 (extended by :func:`simplicity_check`) and the
      mapped-reference Rayleigh quotient are pushed across the
      subinterval by the perturbation factors;
    * the derivative functional of the mapped reference is enclosed
      through the exact gram transform with alpha, beta ranging over the
      subinterval;
    * the certified envelope err_bound (with the box-wide eta_range
      supremum) widens that enclosure to cover the true derivative.

    The result is the hull over subintervals.  The corner diagnostics
    (gram triple, F, Err at theta = pi/3) ride along.  ``simplicity``
    must separate, and ``points`` must hold every node it was made on.
    """
    if not simplicity.separated:
        raise CertifyError(
            "simplicity precondition unmet on J: "
            f"lambda1 upper {simplicity.lambda1_upper} >= "
            f"lambda2 lower {simplicity.lambda2_lower}"
        )

    rows = []
    f_lo = math.inf
    f_hi = -math.inf
    eta_max = 0.0
    err_max = 0.0
    for i, ext in enumerate(simplicity.intervals, start=1):
        try:
            row, e = _algorithm2_interval(i, ext, points[ext.t_lo])
        except (ValueError, ZeroDivisionError, BracketError) as exc:
            raise CertifyError(
                f"interval {i} (theta in [{ext.t_lo!r}, {ext.t_hi!r}]): {exc}"
            ) from exc
        rows.append(row)
        f_lo = min(f_lo, row.f_lo)
        f_hi = max(f_hi, row.f_hi)
        eta_max = max(eta_max, e)
        err_max = max(err_max, row.err)

    corner = _corner_point(points[simplicity.intervals[-1].t_hi])
    return DerivativeRange(f_lo, f_hi, rows, corner, eta_max, err_max)


def _algorithm2_interval(i: int, ext: Extension, pd: PointData) -> tuple[LedgerRow, float]:
    """Ledger row of one subinterval of J, with its eta_range supremum."""
    t_lo, t_hi = ext.t_lo, ext.t_hi
    a_lo, a_hi, rho_lo = ext.lam1_lo, ext.lam1_hi, ext.lam2_lo

    X = Interval(*pd.gram_xx)
    C = Interval(*pd.gram_xy)
    Y = Interval(*pd.gram_yy)
    m = Interval(*pd.mass)
    R = (X + Y) / m
    b_hi = (R * Interval(ext.fhi)).hi
    b_lo = (R * Interval(ext.flo)).lo

    if not (b_hi < rho_lo):
        raise BracketError(
            f"reference Rayleigh upper {b_hi} not below separator {rho_lo}"
        )
    e = eta_range((a_lo, a_hi), (b_lo, b_hi), (rho_lo, rho_lo))
    err = err_bound(a_lo, b_hi, rho_lo, (t_lo, t_hi), eta_value=e)

    tt = Interval(t_lo, t_hi)
    ti = Interval(t_lo)
    st = sin_interval(ti)
    al = (cos_interval(tt) - cos_interval(ti)) / st
    be = sin_interval(tt) / st
    Yt = (al * al * X - 2.0 * al * C + Y) / be
    Ct = -al * X + C
    f_iv = F_interval(Ct, Yt, cot_interval(tt), be * m)

    row = LedgerRow(
        i, t_lo, t_hi,
        lambda1_lo=a_lo, lambda1_hi=a_hi, lambda2_lo=rho_lo,
        f_lo=dn(f_iv.lo - err, 2), f_hi=up(f_iv.hi + err, 2),
        err=err,
    )
    return row, e


def _corner_point(pd: PointData) -> DerivativePoint:
    X = Interval(*pd.gram_xx)
    C = Interval(*pd.gram_xy)
    Y = Interval(*pd.gram_yy)
    m = Interval(*pd.mass)
    b_hi = ((X + Y) / m).hi
    err = err_bound(pd.lam1.lower, b_hi, pd.lam2.lower, pd.theta)
    gram = (X.mid / m.mid, C.mid / m.mid, Y.mid / m.mid)
    return DerivativePoint(pd.theta, *gram, F_of(gram, pd.theta), err)


# ---------------------------------------------------------------------------
# full proof


@dataclass(frozen=True)
class Certificate:
    """Machine-readable record of one proof run."""

    problem: str
    verdict: str                 # "proven" | "failed"
    config: dict
    environment: dict
    step1: dict
    step2: dict
    step3: dict
    failure: dict | None
    rows_step2: list[LedgerRow] = field(repr=False)
    rows_step3: list[LedgerRow] = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "schema": CERT_SCHEMA,
            "problem": self.problem,
            "verdict": self.verdict,
            "config": self.config,
            "environment": self.environment,
            "step1": self.step1,
            "step2": self.step2,
            "step3": self.step3,
            "failure": self.failure,
            "ledger": {
                "step2": [_row_dict(r) for r in self.rows_step2],
                "step3": [_row_dict(r) for r in self.rows_step3],
            },
        }

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1)
            f.write("\n")

    def write_csv(self, path) -> None:
        write_ledger_csv(path, self.rows_step2 + self.rows_step3)


_STEP1_NOTE = (
    "Search region reduced to the arc theta in (0, pi/3] of the normalized "
    "lens: moving the apex vertically toward the unit circle only lowers "
    "lambda_1 (domain monotonicity in the vertical coordinate), so the "
    "extremal shape lies on the arc. Recorded, not computed."
)


def run_proof(config: RunConfig) -> Certificate:
    """Execute steps 1-3 and assemble the Certificate.

    Sub-step failures (solver non-convergence, inverted brackets,
    sign-indefinite envelope) yield verdict "failed" with the diagnosis
    in the certificate rather than an exception; configuration errors
    are raised by :class:`RunConfig` itself.
    """
    problem, sched, eps, n2 = config.problem, config.schedule, config.epsilon, config.n2
    cfg_record = {
        "problem": problem,
        "cg_n": config.cg_n,
        "cr_n": config.cr_n,
        "eq_cg_n": config.eq_cg_n,
        "eq_cr_n": config.eq_cr_n,
        "epsilon": eps,
        "n2": n2,
        "schedule_provenance": sched.provenance,
        "schedule_breakpoints": list(sched.breakpoints),
        "quick": config.quick,
        "lemma_constant": LEMMA_CONST,
        "enclosure_model": (
            "CR: rayleigh +- certified residual (M-inverse norm via mass "
            "eigenvalue lower bound, running-error majorants, outward rounding); "
            "CG: certified Rayleigh quotient upper bound on lambda_1"
        ),
    }
    env_record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }

    step1 = {"note": _STEP1_NOTE, "computational": False}
    step2: dict = {}
    step3: dict = {}
    failure = None
    rows2: list[LedgerRow] = []
    rows3: list[LedgerRow] = []
    verdict = "failed"

    try:
        nodes = j_nodes(eps, n2)
        points = compute_points(
            problem, list(sched.breakpoints) + nodes, config.cg_n, config.cr_n, config.jobs
        )
        eq_pd = compute_point(problem, math.pi / 3, config.eq_cg_n, config.eq_cr_n)

        alg1 = algorithm1(sched, points)
        rows2 = alg1.rows
        step2 = {
            "lower_min": alg1.lower_min,
            "argmin_interval": alg1.argmin_interval,
            "equilateral_lower": eq_pd.lam1.lower,
            "equilateral_upper": eq_pd.lam1.upper,
            "margin": alg1.lower_min - eq_pd.lam1.upper,
            "ok": alg1.lower_min > eq_pd.lam1.upper,
        }
        if not step2["ok"]:
            failure = {
                "stage": "step2",
                "detail": (
                    f"bracket too wide: interval {alg1.argmin_interval} lower bound "
                    f"{alg1.lower_min} does not exceed the corner upper bound "
                    f"{eq_pd.lam1.upper}"
                ),
            }

        simp = simplicity_check(eps, n2, points)
        step3 = {
            "simplicity": {
                "lambda1_upper": simp.lambda1_upper,
                "lambda2_lower": simp.lambda2_lower,
                "separated": simp.separated,
            }
        }
        if simp.separated:
            rng = algorithm2(points, simp)
            rows3 = rng.rows
            step3.update(
                {
                    "f_lo": rng.f_lo,
                    "f_hi": rng.f_hi,
                    "eta_max": rng.eta_max,
                    "err_max": rng.err_max,
                    "corner": {
                        "theta": rng.corner.theta,
                        "gram_xx": rng.corner.gram_xx,
                        "gram_xy": rng.corner.gram_xy,
                        "gram_yy": rng.corner.gram_yy,
                        "f_value": rng.corner.f_value,
                        "err": rng.corner.err,
                    },
                    "ok": rng.f_hi < 0.0,
                }
            )
            if not step3["ok"] and failure is None:
                offender = max(rng.rows, key=lambda r: r.f_hi)
                failure = {
                    "stage": "step3",
                    "detail": (
                        f"derivative envelope sign-indefinite: interval {offender.i} "
                        f"has F_hi = {offender.f_hi} >= 0"
                    ),
                }
        else:
            step3["ok"] = False
            if failure is None:
                failure = {
                    "stage": "step3",
                    "detail": "simplicity evidence failed: enclosures overlap on J",
                }

        if step2.get("ok") and step3.get("ok"):
            verdict = "proven"
    except (CertifyError, EigensolveError, BracketError) as exc:
        failure = {"stage": "abort", "detail": str(exc)}

    return Certificate(
        problem, verdict, cfg_record, env_record,
        step1, step2, step3, failure, rows2, rows3,
    )
