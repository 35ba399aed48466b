"""Shared builders, analytic oracle values and closed-form oracles for the
test suite."""

from __future__ import annotations

import math
import os
import subprocess
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import tricert
from tricert.eigsolve import ground_rayleigh, solve_lowest
from tricert.fem import assemble, build_space
from tricert.geometry import triangle_from_angle
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


@lru_cache(maxsize=128)
def operators(theta: float, n: int, family: str, bc: str):
    tri = triangle_from_angle(theta)
    return assemble(build_space(uniform_subdivide(tri, n), family, bc))


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
