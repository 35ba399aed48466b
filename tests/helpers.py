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
from tricert.eigsolve import ground_rayleigh, solve_lowest
from tricert.fem import ReferenceMap, assemble, build_space
from tricert.geometry import triangle_from_angle, triangle_from_vertex
from tricert.mesh import uniform_subdivide

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
    """(||u_x||^2, (u_x, u_y), ||u_y||^2) for reduced coefficients u."""
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
    one part, which maps to a triangle of any apex."""
    space = build_space(uniform_subdivide(triangle_from_vertex(0.0, 1.0), n), family, bc)
    return ReferenceMap.of(assemble(space)).with_halves(((0, 1),))


@lru_cache(maxsize=128)
def operators(theta: float, n: int, family: str, bc: str):
    """The operators of T(theta), with their grams, solved in their whole
    part: the banded path every proof solve takes."""
    ref, tri = whole_map(n, family, bc), triangle_from_angle(theta)
    Kxx, Kxy, Kyy = ref.grams(tri)
    return replace(ref.mapped(tri), Kxx=Kxx, Kxy=Kxy, Kyy=Kyy)


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


@lru_cache(maxsize=128)
def lowest_two(theta: float, n: int, family: str, bc: str):
    return tuple(solve_lowest(operators(theta, n, family, bc), 2))


@lru_cache(maxsize=128)
def ground_rho(theta: float, n: int, family: str, bc: str):
    """Certified Rayleigh quotient of the computed ground mode, unshifted."""
    return ground_rayleigh(operators(theta, n, family, bc), 0.0).rho


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
