"""Shared builders and analytic oracle values for the test suite."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import tricert
from tricert.eigsolve import solve_lowest
from tricert.fem import assemble, build_space
from tricert.geometry import triangle_from_angle
from tricert.mesh import uniform_subdivide

EQ = math.pi / 3

# closed-form eigenvalues for the zero-trace problem
LAM1_EQ_DIRICHLET = 16.0 * math.pi**2 / 3.0          # equilateral, unit side
LAM2_EQ_DIRICHLET = 112.0 * math.pi**2 / 9.0
LAM1_RIGHT_ISO_DIRICHLET = 5.0 * math.pi**2          # legs 1 (theta = pi/2)


@lru_cache(maxsize=128)
def operators(theta: float, n: int, family: str, bc: str):
    tri = triangle_from_angle(theta)
    return assemble(build_space(uniform_subdivide(tri, n), family, bc))


@lru_cache(maxsize=128)
def lowest_two(theta: float, n: int, family: str, bc: str):
    return tuple(solve_lowest(operators(theta, n, family, bc), 2))


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
