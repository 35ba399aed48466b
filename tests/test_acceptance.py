"""Acceptance suite: one test per published target, at the stated
tolerances.

The two session fixtures run the full proof configuration through the
CLI exactly as a user would and everything else reads the certificates
they leave behind, so this file costs a few minutes of wall time.  Run
it with -v to get the per-criterion pass/fail lines.
"""

import csv
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg
from helpers import (
    assemble_on_angle,
    gram_triple,
    lowest_two,
    map_derivative_gram,
    operators,
    shear,
)

from tricert.bounds import F_of, err_bound, eta
from tricert.certify import compute_point, paper_config
from tricert.eigsolve import solve_lowest
from tricert.rounding import Interval

EQ = math.pi / 3
LAM1_EQ_DIRICHLET = 16.0 * math.pi**2 / 3.0


def run_prove(problem, out_dir, *extra):
    argv = [
        sys.executable, "-m", "tricert", "prove",
        "--problem", problem, "--out", str(out_dir), *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert proc.returncode in (0, 1), proc.stderr
    with open(out_dir / "certificate.json") as f:
        cert = json.load(f)
    with open(out_dir / "ledger.csv", newline="") as f:
        ledger = list(csv.reader(f))
    return proc.returncode, cert, ledger, elapsed


@pytest.fixture(scope="session")
def dirichlet_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("full_dirichlet")
    return run_prove("dirichlet", out, "--paper-config")


@pytest.fixture(scope="session")
def cr_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("full_cr")
    return run_prove("cr-constant", out, "--paper-config")


def corner_bracket(problem):
    """The theta = pi/3 bracket of the default CG 96 / CR 64 run.

    The run holds a dedicated, finer mesh pair for the corner (the sweep
    meshes cannot reach the published corner values; their eigenvalue
    defect alone exceeds the margin), so the reference bracket is
    computed at the configuration's corner meshes.
    """
    cfg = paper_config(problem)
    return compute_point(problem, EQ, cfg.eq_cg_n, cfg.eq_cr_n).lam1


def test_criterion_1_equilateral_dirichlet_bracket():
    t0 = time.perf_counter()
    lam = corner_bracket("dirichlet")
    elapsed = time.perf_counter() - t0
    assert lam.upper <= 52.641
    assert lam.lower <= LAM1_EQ_DIRICHLET <= lam.upper
    assert lam.upper - lam.lower <= 0.1
    assert elapsed <= 120.0


def test_criterion_2_equilateral_interpolation_bracket():
    t0 = time.perf_counter()
    lam = corner_bracket("cr-constant")
    elapsed = time.perf_counter() - t0
    assert lam.upper <= 27.945
    assert lam.upper - lam.lower <= 0.1
    c_iv = Interval(1.0) / Interval(lam.lower, lam.upper).sqrt()
    assert c_iv.lo <= 0.18926 <= c_iv.hi
    assert c_iv.hi < 0.1893
    assert elapsed <= 120.0


def test_criterion_3_certified_lower_bounds(dirichlet_run, cr_run, tmp_path):
    targets = {"dirichlet": 52.654, "cr-constant": 27.949}
    for code, cert, ledger, _ in (dirichlet_run, cr_run):
        s2 = cert["step2"]
        want = targets[cert["problem"]]
        assert s2["lower_min"] >= want - 0.01
        assert s2["lower_min"] > s2["equilateral_upper"]
        assert cert["verdict"] == "proven"
        assert code == 0

    # quick smoke: bounded wall time and an internally consistent ledger,
    # whether or not the coarse margins hold up
    code, cert, ledger, elapsed = run_prove(
        "cr-constant", tmp_path, "--quick"
    )
    assert elapsed <= 300.0
    body = ledger[1:]
    n2 = len(cert["ledger"]["step2"])
    assert len(body) == n2 + len(cert["ledger"]["step3"])
    for rows in (body[:n2], body[n2:]):
        prev_hi = None
        for r in rows:
            lo, hi = float(r[1]), float(r[2])
            assert lo < hi
            if prev_hi is not None:
                assert lo == prev_hi  # intervals tile without gaps
            prev_hi = hi
            assert 0.0 < float(r[3]) <= float(r[4])
    assert float(body[-1][2]) == EQ


def test_criterion_4_derivative_ranges(dirichlet_run, cr_run):
    hulls = {"dirichlet": (-42.461, -18.610), "cr-constant": (-20.536, -11.711)}
    corners = {"dirichlet": (-30.401, 26.328), "cr-constant": (-16.134, 13.973)}
    for _, cert, _, _ in (dirichlet_run, cr_run):
        s3 = cert["step3"]
        want_lo, want_hi = hulls[cert["problem"]]
        assert abs(s3["f_lo"] - want_lo) <= 0.05 * abs(want_lo)
        assert abs(s3["f_hi"] - want_hi) <= 0.05 * abs(want_hi)
        assert s3["f_hi"] < 0.0

        corner = s3["corner"]
        want_f, want_diag = corners[cert["problem"]]
        assert abs(corner["f_value"] - want_f) <= 0.05
        assert abs(corner["gram_xx"] - want_diag) <= 0.05
        assert abs(corner["gram_yy"] - want_diag) <= 0.05
        assert abs(corner["gram_xy"]) <= 1e-8


def test_criterion_5_simplicity_evidence(cr_run):
    _, cert, _, _ = cr_run
    simp = cert["step3"]["simplicity"]
    assert simp["lambda1_upper"] <= 28.069 + 0.01
    assert simp["lambda2_lower"] >= 45.011 - 0.05
    assert simp["separated"] is True
    assert simp["lambda1_upper"] < simp["lambda2_lower"]


def test_criterion_6_property_bullets():
    # the Lanczos modes of solve_lowest agree with the dense oracle of the
    # whole pencil, on coarse meshes and on two larger ones
    for n, family, bc in (
        (5, "cg", "edge-mean"), (6, "cg", "dirichlet"),
        (5, "cr", "dirichlet"), (6, "cr", "edge-mean"),
        (16, "cg", "edge-mean"), (19, "cg", "dirichlet"),
    ):
        ops = operators(0.9, n, family, bc)
        k = min(3, ops.A.shape[0] - 2)
        dense = scipy.linalg.eigh(ops.A.toarray(), ops.M.toarray(), eigvals_only=True)[:k]
        for enc, lam in zip(solve_lowest(ops, k), dense):
            assert abs(enc.rayleigh - lam) <= 1e-10 * abs(lam)

    # stiffness splits into the two partial-derivative grams
    rng = np.random.default_rng(7)
    for theta, family, bc in ((0.7, "cg", "dirichlet"), (1.0, "cr", "edge-mean")):
        ops = assemble_on_angle(theta, 7, family, bc)
        gap = (ops.A - (ops.Kxx + ops.Kyy)).toarray()
        assert np.max(np.abs(gap)) <= 1e-13 * np.max(np.abs(ops.A.toarray()))

        # assembled grams transform exactly like the affine pullback
        src, dst = theta, theta + 0.15
        alpha, beta = shear(src, dst)
        u = rng.standard_normal(ops.A.shape[0])
        x, c, y = gram_triple(ops, u)
        ops2 = assemble_on_angle(dst, 7, family, bc)
        xt, ct, yt = gram_triple(ops2, u)
        mx, mc, my = map_derivative_gram((x, c, y), alpha, beta)
        scale = abs(x) + abs(y)
        assert abs(xt - mx) <= 1e-12 * scale
        assert abs(ct - mc) <= 1e-12 * scale
        assert abs(yt - my) <= 1e-12 * scale

    # discrete eigenvalue slope matches the derivative functional
    theta, dt, n = EQ - 0.05, 1e-4, 64
    for bc in ("dirichlet", "edge-mean"):
        lam = {
            s: lowest_two(theta + s * dt / 2, n, "cg", bc)[0].rayleigh
            for s in (-1, 1)
        }
        fd = (lam[1] - lam[-1]) / dt
        (enc,) = solve_lowest(operators(theta, n, "cg", bc), 1)
        u = enc.vector
        # the grams of T(theta) itself, assembled there
        ops = assemble_on_angle(theta, n, "cg", bc)
        f = F_of(gram_triple(ops, u), theta, mass=float(u @ (ops.M @ u)))
        assert abs(fd - f) <= 1e-2 * abs(f)

    # defect-bound and envelope edge cases
    assert eta(52.0, 52.0, 121.0) <= 1e-12
    want = math.sqrt(7.0 - 3.0 * math.sqrt(3.0))
    assert eta(3.0, 4.0, 7.0) >= want * (1.0 - 1e-13)
    assert math.isclose(eta(3.0, 4.0, 7.0), want, rel_tol=1e-12)
    assert eta(52.0, 60.0, 121.0) > eta(52.0, 55.0, 121.0)   # grows with b
    assert eta(52.0, 55.0, 130.0) < eta(52.0, 55.0, 121.0)   # shrinks with c
    assert F_of((3.0, 0.0, 0.0), 0.9) == 0.0                 # pure-x gradient
    assert 0.0 <= err_bound(52.0, 52.0, 121.0, EQ) <= 1e-300

    # right-isosceles analytic eigenvalue sits inside its bracket
    pd = compute_point("dirichlet", math.pi / 2, cg_n=64, cr_n=64)
    assert pd.lam1.lower <= 5.0 * math.pi**2 <= pd.lam1.upper
