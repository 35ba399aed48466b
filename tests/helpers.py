"""Shared builders, analytic oracle values and closed-form oracles for the
test suite."""

from __future__ import annotations

import math
import os
import subprocess
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import tricert
from tricert import certify, eigsolve
from tricert.bounds import bracket, corrected_lower
from tricert.certify import PointData
from tricert.eigsolve import EigenEnclosure, EigensolveError, RayleighBound, solve_lowest
from tricert.fem import INVARIANT, ReferenceMap, assemble, build_space
from tricert.geometry import triangle_from_angle, triangle_from_vertex
from tricert.mesh import uniform_subdivide
from tricert.rounding import Interval, dn, gamma, up

EQ = math.pi / 3

# closed-form eigenvalues for the zero-trace problem
LAM1_EQ_DIRICHLET = 16.0 * math.pi**2 / 3.0          # equilateral, unit side
LAM2_EQ_DIRICHLET = 112.0 * math.pi**2 / 9.0
LAM1_RIGHT_ISO_DIRICHLET = 5.0 * math.pi**2          # legs 1 (theta = pi/2)


def shear(theta: float, theta_t: float) -> tuple[float, float]:
    """(alpha, beta) of the map Q = [[1, alpha], [0, beta]] onto T(theta_t).

    Q fixes O and A and sends B(theta) = (cos theta, sin theta) to
    B(theta_t):

        alpha = (cos(theta_t) - cos(theta)) / sin(theta)
        beta  = sin(theta_t) / sin(theta)

    det Q = beta > 0, so orientation is preserved and integrals scale by
    beta under composition with Q^{-1}.
    """
    s = math.sin(theta)
    return (math.cos(theta_t) - math.cos(theta)) / s, math.sin(theta_t) / s


def perturbation_factors(theta: float, theta_t: float) -> tuple[float, float]:
    """Two-sided eigenvalue perturbation factors between T(theta) and T(theta_t).

    For the map Q of :func:`shear`, (Q Q^T)^{-1} has the closed pair of
    eigenvalues

        (cos theta - 1) / (cos theta_t - 1),
        (cos theta + 1) / (cos theta_t + 1),

    and with (low, high) = (min, max) of that pair every Laplacian
    eigenvalue of either discrete or continuous kind satisfies

        low * lambda_k(theta) <= lambda_k(theta_t) <= high * lambda_k(theta),

    as does the Rayleigh quotient of any fixed function pushed through Q.
    Sanity anchors: theta_t -> theta gives (1, 1); theta_t -> 0 sends
    high -> infinity, matching lambda_1 -> infinity on a degenerating
    triangle.  Product relation: low(t, s) = 1 / high(s, t).
    """
    if not (0.0 < theta < math.pi and 0.0 < theta_t < math.pi):
        raise ValueError("both angles must lie in (0, pi)")
    r1 = (math.cos(theta) - 1.0) / (math.cos(theta_t) - 1.0)
    r2 = (math.cos(theta) + 1.0) / (math.cos(theta_t) + 1.0)
    return (min(r1, r2), max(r1, r2))


def map_derivative_gram(
    gram: tuple[float, float, float], alpha: float, beta: float
) -> tuple[float, float, float]:
    """Partial-derivative Gram triple of u o Q^{-1} on T(theta_t).

    For u on T(theta) with X = ||u_x||^2, C = (u_x, u_y), Y = ||u_y||^2,
    grad(u o Q^{-1}) = Q^{-T} grad(u) o Q^{-1} with
    Q^{-T} = [[1, 0], [-alpha/beta, 1/beta]] and the area factor beta give

        X~ = beta * X
        C~ = -alpha * X + C
        Y~ = (alpha^2 X - 2 alpha C + Y) / beta.

    Raises ValueError on beta <= 0 or on an input or output triple that
    breaks Cauchy-Schwarz (|C| <= sqrt(X Y)) beyond rounding slack.
    """
    X, C, Y = (float(v) for v in gram)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    _check_gram(X, C, Y, "input")
    Xt = beta * X
    Ct = -alpha * X + C
    Yt = (alpha * alpha * X - 2.0 * alpha * C + Y) / beta
    _check_gram(Xt, Ct, Yt, "output")
    return Xt, Ct, Yt


def _check_gram(X: float, C: float, Y: float, which: str) -> None:
    if X < 0.0 or Y < 0.0:
        raise ValueError(f"{which} gram triple has a negative diagonal: {(X, C, Y)}")
    # rounding slack: the transform itself only loses ~1e-15 relative
    slack = 1e-12 * (X + Y) + 1e-300
    if C * C > X * Y + slack:
        raise ValueError(f"{which} gram triple violates Cauchy-Schwarz: {(X, C, Y)}")


def gram_triple(ops, u: np.ndarray) -> tuple[float, float, float]:
    """(||u_x||^2, (u_x, u_y), ||u_y||^2) for reduced coefficients u, from
    operators that carry their grams (:func:`assemble_on_angle`)."""
    return (
        float(u @ (ops.Kxx @ u)),
        float(u @ (ops.Kxy @ u)),
        float(u @ (ops.Kyy @ u)),
    )


def mesh_arrays_by_loops(n: int) -> dict[str, np.ndarray]:
    """The arrays of the n-fold uniform mesh, built entity by entity in
    plain loops from the numbering that ``tricert.mesh.Mesh`` documents.

    Nodes are listed row by row, base row j = 0 first; cell (i, j) gives
    the up element (P(i,j), P(i+1,j), P(i,j+1)) and, where i + j <= n - 2,
    then the down element (P(i+1,j+1), P(i,j+1), P(i+1,j)); edges are the
    sorted vertex pairs in lexicographic order, and an element's edge k
    is the one opposite its vertex k.
    """
    node = {}
    for j in range(n + 1):
        for i in range(n + 1 - j):
            node[i, j] = len(node)
    elements = []
    for j in range(n):
        for i in range(n - j):
            elements.append((node[i, j], node[i + 1, j], node[i, j + 1]))
            if i + j <= n - 2:
                elements.append((node[i + 1, j + 1], node[i, j + 1], node[i + 1, j]))
    # edge k of an element joins its vertices k + 1 and k + 2 (mod 3)
    sides = [[tuple(sorted((el[k - 2], el[k - 1]))) for k in range(3)] for el in elements]
    edges = sorted({pair for pairs in sides for pair in pairs})
    edge = {pair: k for k, pair in enumerate(edges)}
    element_edges = [[edge[pair] for pair in pairs] for pairs in sides]
    lattice = list(node)
    on_side = (
        lambda i, j: j == 0,          # side 0, O -> A
        lambda i, j: i + j == n,      # side 1, A -> B
        lambda i, j: i == 0,          # side 2, O -> B
    )
    edge_side = []
    for a, b in edges:
        sides = [s for s, on in enumerate(on_side) if on(*lattice[a]) and on(*lattice[b])]
        edge_side.append(sides[0] if sides else -1)
    return {
        "lattice": np.array(lattice, dtype=np.int32),
        "elements": np.array(elements, dtype=np.int32),
        "edges": np.array(edges, dtype=np.int32),
        "element_edges": np.array(element_edges, dtype=np.int32),
        "edge_side": np.array(edge_side, dtype=np.int8),
    }


def eliminate_by_loops(constraints, dim: int) -> sp.csr_matrix:
    """The slave-elimination null-space basis of ``fem._eliminate``, built
    coordinate by coordinate: the identity on the masters, and each
    slave's row solving its own constraint."""
    slaves = {slave for _, _, slave in constraints}
    masters = [d for d in range(dim) if d not in slaves]
    col_of = {m: k for k, m in enumerate(masters)}
    rows, cols, vals = list(masters), list(range(len(masters))), [1.0] * len(masters)
    for dofs, w, slave in constraints:
        w_slave = w[dofs == slave][0]
        for d, wv in zip(dofs.tolist(), w):
            if d != slave:
                rows.append(slave)
                cols.append(col_of[d])
                vals.append(float(-wv / w_slave))
    return sp.coo_matrix((vals, (rows, cols)), shape=(dim, len(masters))).tocsr()


def side_differences_by_loops(sides, S: sp.csr_matrix) -> sp.csr_matrix:
    """The local side-difference basis of ``fem._side_differences``, built
    column by column into a dict keyed by the coordinate each column is
    filed under."""
    m = S.shape[1]
    entries = S.tocoo()
    col_of = np.full(S.shape[0], -1)
    col_of[entries.row] = entries.col
    lines = []
    for dofs, w in sides:
        g = S[dofs].T @ w
        along = []
        for c in col_of[dofs].tolist():
            if c >= 0 and c not in along:
                along.append(c)
        lines.append((g, [c for c in along if g[c] != 0.0]))
    involved = [0] * m
    for _, along in lines:
        for c in along:
            involved[c] += 1
    columns = {c: ([c], [1.0]) for c in range(m) if involved[c] == 0}
    for g, along in lines:
        own = [c for c in along if involved[c] == 1]
        for a, b in zip(own[:-1], own[1:]):
            columns[b] = ([a, b], [g[b], -g[a]])
    for c in (c for c in range(m) if involved[c] == 2):
        (g, along), (h, across) = lines

        def nearest_own(line):
            at = line.index(c)
            return min((d for d in line if involved[d] == 1), key=lambda d: abs(line.index(d) - at))

        x, y = nearest_own(along), nearest_own(across)
        columns[c] = ([c, x, y], [g[x] * h[y], -g[c] * h[y], -h[c] * g[x]])
    filed = [columns[c] for c in sorted(columns)]
    rows = np.concatenate([r for r, _ in filed])
    cols = np.repeat(np.arange(len(filed)), [len(r) for r, _ in filed])
    vals = np.concatenate([v for _, v in filed])
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, len(filed)))


@lru_cache(maxsize=32)
def whole_map(n: int, family: str, bc: str) -> ReferenceMap:
    """The reference map of the n-fold space with the whole space as its
    one part, which maps to a triangle of any apex, as ``tricert
    constants`` maps it, but built and cached here, so that the test
    spaces neither evict the proof's from the shared cache nor serve as
    the maps its later builds take their parts from."""
    space = build_space(uniform_subdivide(triangle_from_vertex(0.0, 1.0), n), family, bc)
    return ReferenceMap.of(assemble(space)).with_halves(((0, 1),))


@lru_cache(maxsize=128)
def operators(theta: float, n: int, family: str, bc: str):
    """The pencil of T_c, c = fl(cos theta), on T_ref: A = K0 - c S and the
    reference M, whose eigenvalues are mu = lambda s^2 (:func:`s2`),
    solved in its whole part: the banded path every proof solve takes."""
    return whole_map(n, family, bc).mapped(triangle_from_angle(theta))


def s2(theta: float) -> float:
    """s^2 = 1 - c^2 of T_c, c = fl(cos theta), in floating point: the
    factor mu = lambda s^2 of its pencil, to rounding."""
    c = math.cos(theta)
    return 1.0 - c * c


def in_lambda(enc: EigenEnclosure, theta: float) -> EigenEnclosure:
    """A pencil enclosure of T_c as certify converts it to lambda."""
    return certify._in_lambda(enc, triangle_from_angle(theta).shear.s2)


def assemble_on_angle(theta: float, n: int, family: str, bc: str):
    """The operators assembled directly on T(theta), which carry no part."""
    return assemble(build_space(uniform_subdivide(triangle_from_angle(theta), n), family, bc))


def superlu_eigenvalues(ops, k: int) -> np.ndarray:
    """The ``k`` lowest eigenvalues of the pencil (A, M) of ``ops``,
    ascending, by shift-invert Lanczos on a SuperLU factor of the whole
    space's A: an oracle for spaces too large for a dense solve,
    independent of the parts and band orders the solvers use."""
    lu = spla.splu(ops.A.tocsc())
    opinv = spla.LinearOperator(ops.A.shape, matvec=lu.solve, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(ops.dim)
    vals = spla.eigsh(
        ops.A, k=k, M=ops.M, sigma=0.0, OPinv=opinv, v0=v0, return_eigenvectors=False
    )
    return np.sort(vals)


def two_half_solve(ops, count: int = 2):
    """The CR solve as it ran with both mirror halves solved: ``count`` + 1
    modes computed in each half of ``ops``, the ``count`` lowest of their
    union, ordered by computed eigenvalue, certified on the whole
    operators.  An oracle for the one-run solve, whose lambda_1 must
    match it bit for bit."""
    vals, lifted = [], []
    for half in ops.halves:
        lam, vecs = eigsolve._lowest_modes(half, count + 1, ncv=eigsolve.HALF_NCV, vectors=count)
        vals.append(lam[:count])
        lifted.append(half.C @ vecs)
    order = np.argsort(np.concatenate(vals), kind="stable")[:count]
    vecs = np.hstack(lifted)[:, order]
    us = [eigsolve._normalize(ops.M, vecs[:, i]) for i in range(count)]
    return [eigsolve._certify(ops, p, k) for k, p in enumerate(eigsolve._product_pass(ops, us), 1)]


# The certification with each bound forming its own products: copied
# magnitudes, the quadratic forms and the residual bound each multiplying
# by A, M, |A| and |M| again, the conforming side certified from the forms
# of copies of the reference grams, each with its own magnitude, and every
# conversion between the pencil of T_c and lambda written out.  An oracle
# for the one product pass of eigsolve and the conversions of certify,
# whose every certified bit must match it.


def _magnitude_copy(K: sp.csr_matrix) -> sp.csr_matrix:
    out = K.copy()
    out.data = np.abs(out.data)
    return out


def quad_form_by_itself(K, u, abs_K=None) -> Interval:
    """Enclosure of u^T K u, with |K| formed here when not given."""
    if abs_K is None:
        abs_K = _magnitude_copy(K)
    Ku = K @ u
    val = float(u @ Ku)
    maj = float(np.abs(u) @ (abs_K @ np.abs(u)))
    err = gamma(int(np.max(np.diff(K.indptr))) + u.size + 2) * up(maj, 4)
    return Interval(dn(val - err, 4), up(val + err, 4))


def residual_by_itself(ops, u, rho, magnitudes) -> float:
    """The certified bound on ||A u - rho M u||_{M^-1}, from its own products."""
    A, M = ops.A, ops.M
    abs_A, abs_M = magnitudes
    Au = A @ u
    Mu = M @ u
    r = Au - rho * Mu
    au_abs = abs_A @ np.abs(u)
    mu_abs = abs_M @ np.abs(u)
    m = max(int(np.max(np.diff(A.indptr))), int(np.max(np.diff(M.indptr))))
    delta_elem = gamma(m + 3) * (au_abs + abs(rho) * mu_abs + np.abs(r))
    sqrt_mu = dn(float(np.sqrt(ops.mass_min_eig_lower())), 2)
    norm2 = [up(float(np.linalg.norm(x)) * (1.0 + gamma(x.size + 2)), 4) for x in (r, delta_elem)]
    return up(up(norm2[0] + norm2[1], 2) / sqrt_mu, 4)


def _rayleigh_by_itself(ops, u, magnitudes) -> tuple[Interval, Interval]:
    num = quad_form_by_itself(ops.A, u, magnitudes[0])
    den = quad_form_by_itself(ops.M, u, magnitudes[1])
    if den.lo <= 0.0:
        raise EigensolveError("mass quadratic form not certifiably positive")
    return num / den, den


def _certify_by_itself(ops, u, k, magnitudes) -> EigenEnclosure:
    rho, mass = _rayleigh_by_itself(ops, u, magnitudes)
    delta = up(residual_by_itself(ops, u, rho.mid, magnitudes) / dn(float(np.sqrt(mass.lo)), 2), 2)
    rad = up(delta + 0.5 * rho.width, 4)
    lower, upper = dn(rho.mid - rad, 4), up(rho.mid + rad, 4)
    if k == 1:
        upper = min(upper, up(rho.hi, 4))
    return EigenEnclosure(k, lower, upper, rho, delta, u)


def solve_by_bound(ops, count: int = 2) -> list[EigenEnclosure]:
    """solve_lowest with each bound forming its own products."""
    first = ops.halves[0]
    _, vecs = eigsolve._lowest_modes(first, count + 1, ncv=eigsolve.HALF_NCV, vectors=count)
    magnitudes = _magnitude_copy(ops.A), _magnitude_copy(ops.M)
    encs = [
        _certify_by_itself(ops, eigsolve._normalize(ops.M, first.C @ vecs[:, i]), i + 1, magnitudes)
        for i in range(count)
    ]
    if len(ops.halves) > 1:
        v = vecs[:, count - 1]
        floor = eigsolve._floor(ops, encs[-1].lower, float(v @ (first.M @ v)) / float(v @ v))
        encs[-1] = replace(encs[-1], lower=floor)
    return encs


def reference_forms_by_themselves(ref, shear, u):
    """R(u), the mass form and the gram forms of u on the triangle of
    ``shear``, from copies of the reference K0, S, Kxx and M of ``ref``,
    each with its own magnitude: u is normalised in M; the form of y = K0
    u - c S u is widened by gamma(n + 2) |u|^T |y| for its dot product and
    gamma(rows + 3) |u|^T (|K0| + |c| |S|) |u| for y; and s A = K0 - c S +
    kappa Kxx, M = s M_ref, Kxx = s Kxx_ref, Kxy = Kxy_ref - c Kxx_ref and
    Kyy = A - Kxx give the rest."""
    u = eigsolve._normalize(ref.M, u)
    n = ref.dim
    K0, S, Kxx = (
        sp.csr_matrix((v.copy(), ref.indices.copy(), ref.indptr.copy()), (n, n))
        for v in (ref.k0, ref.xy_sym, ref.xx)
    )
    b, x = (quad_form_by_itself(K, u) for K in (S, Kxx))
    m = quad_form_by_itself(ref.M, u)
    y = K0 @ u - shear.c * (S @ u)
    abs_u = np.abs(u)
    k_terms = float(abs_u @ (_magnitude_copy(K0) @ abs_u))
    s_terms = float(abs_u @ (_magnitude_copy(S) @ abs_u))
    rows = int(np.max(np.diff(K0.indptr)))
    err = up(
        gamma(n + 2) * up(float(abs_u @ np.abs(y)), 4)
        + gamma(rows + 3) * up(k_terms + abs(shear.c) * s_terms, 4),
        2,
    )
    val = float(u @ y)
    c, s2 = Interval(shear.c), shear.s2
    s = s2.sqrt()
    stiff = Interval(dn(val - err, 4), up(val + err, 4)) + shear.kappa * x
    return stiff / (s2 * m), s * m, (s * x, 0.5 * b - c * x, (stiff - s2 * x) / s)


def _certified_solve_by_bound(tri, bc, cg_n, cr_n, cr_parts=None, cg_parts=None, reference=None):
    """certify.certified_solve with each bound forming its own products
    and every conversion between mu and lambda written out: the brackets,
    and the conforming Rayleigh quotient, mass form and gram forms."""
    reference = reference or certify._reference
    shear = tri.shear
    ops_cr = reference(cr_n, "cr", bc, cr_parts).mapped(tri)
    enc = solve_by_bound(ops_cr, 2)
    enc = [eigsolve.verify_enclosure(enc[0], (enc[1],)), enc[1]]
    enc = [
        replace(
            e, lower=(Interval(e.lower) / shear.s2).lo, upper=(Interval(e.upper) / shear.s2).hi,
            rho=e.rho / shear.s2, residual_bound=up(e.residual_bound / shear.s2.lo),
        )
        for e in enc
    ]
    # sides 1, 1 + kappa and 2 - 2c + kappa squared
    longest = max(1.0, (1.0 + shear.kappa).hi, (2.0 - 2.0 * Interval(shear.c) + shear.kappa).hi)
    h_cr = up(up(math.sqrt(longest)) / cr_n)
    ref_cg = reference(cg_n, "cg", bc, cg_parts)
    half = ref_cg.parts(tri)[0]
    sigma = (Interval(corrected_lower(enc[0], h_cr)) * shear.s2).lo
    _, vecs = eigsolve._lowest_modes(half, 1, sigma=sigma, ncv=eigsolve.GROUND_NCV)
    rho, mass, grams = reference_forms_by_themselves(ref_cg, shear, half.C @ vecs[:, 0])
    lam1, lam2 = bracket(enc, rho, h_cr)
    return lam1, lam2, mass, grams


def point_by_bound(problem: str, theta: float, cg_n: int, cr_n: int) -> PointData:
    """certify.compute_point with each bound forming its own products."""
    bc = certify._BC[problem]
    tri = triangle_from_angle(theta)
    # the parts compute_point solves in: the whole spaces beyond pi/3, and
    # at fl(pi/3) the conforming part invariant under the symmetry group
    whole = ((0, 1),)
    if theta > EQ:
        cr_parts, cg_parts = whole, whole
    else:
        cr_parts, cg_parts = None, ((INVARIANT,),) if theta == EQ else None
    with certify.single_blas_thread():
        lam1, lam2, mm, (xx, xy, yy) = _certified_solve_by_bound(
            tri, bc, cg_n, cr_n, cr_parts, cg_parts
        )
    return PointData(
        theta, cg_n, cr_n, lam1, lam2,
        (xx.lo, xx.hi), (xy.lo, xy.hi), (yy.lo, yy.hi), (mm.lo, mm.hi),
    )


def edge_mean_lambda1_by_bound(tri, cg_n: int, cr_n: int):
    """certify.edge_mean_lambda1 with each bound forming its own products."""
    with certify.single_blas_thread():
        return _certified_solve_by_bound(
            tri, "edge-mean", cg_n, cr_n, ((0, 1),), ((0, 1),), reference=certify._built
        )[0]


@lru_cache(maxsize=128)
def lowest_two(theta: float, n: int, family: str, bc: str):
    """The two lowest certified enclosures of T_c in lambda, solved in the
    whole part of its pencil (:func:`operators`)."""
    return tuple(in_lambda(e, theta) for e in solve_lowest(operators(theta, n, family, bc), 2))


def ground_rayleigh(ref, theta: float, below: float, first=None) -> RayleighBound:
    """The certified Rayleigh bound on lambda_1 of T_c, c = fl(cos theta),
    of the ground mode of the first part ``ref`` maps it to, or of the
    part ``first``, shifted to ``below`` (in the pencil's mu), as a point
    certifies its conforming side; a map with no parts raises
    ValueError."""
    tri = triangle_from_angle(theta)
    if first is None:
        if not ref.halves:
            raise ValueError("the map carries no part to solve in")
        first = ref.parts(tri)[0]
    return eigsolve.rayleigh_bound(ref, tri.shear, eigsolve.ground_mode(first, below))


@lru_cache(maxsize=128)
def ground_rho(theta: float, n: int, family: str, bc: str):
    """Certified Rayleigh quotient of the computed ground mode, unshifted."""
    return ground_rayleigh(whole_map(n, family, bc), theta, 0.0).rho


needs_two_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="one core: OpenBLAS thread counts of 1 and 2 cannot be told apart",
)


def stdout_per_blas_threads(argv: list[str]) -> list[str]:
    """Standard output of ``argv`` run under OPENBLAS_NUM_THREADS=1 and =2,
    with this checkout's tricert importable."""
    src = str(Path(tricert.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    return outs
