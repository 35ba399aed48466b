"""Certified eigenvalue enclosures.

Main honesty property: every enclosure must contain the corresponding
eigenvalue of the dense generalized solve (the oracle), whatever mesh,
family or constraint produced the matrices.  Then determinism, the
dense/sparse agreement, and the gap refinement.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EQ, operators
from tricert import eigsolve
from tricert.eigsolve import (
    DENSE_CUTOFF,
    EigensolveError,
    _certify,
    ground_rayleigh,
    quad_form_interval,
    residual_bound,
    solve_lowest,
    verify_enclosure,
)

families = st.sampled_from(["cg", "cr"])
bcs = st.sampled_from(["dirichlet", "edge-mean"])


def dense_eigs(ops, k=4):
    return scipy.linalg.eigh(
        ops.A.toarray(), ops.M.toarray(), eigvals_only=True
    )[:k]


def test_hand_oracle_single_dof():
    ops = operators(EQ, 3, "cg", "dirichlet")
    (enc,) = solve_lowest(ops, 1)
    assert 72.0 in enc
    assert enc.width < 1e-9
    assert math.isclose(enc.rayleigh, 72.0, rel_tol=1e-13)


@settings(max_examples=25)
@given(
    st.floats(min_value=0.4, max_value=math.pi - 0.6),
    st.integers(min_value=3, max_value=7),
    families,
    bcs,
    st.integers(min_value=1, max_value=3),
)
def test_enclosures_contain_dense_oracle(theta, n, family, bc, count):
    ops = operators(theta, n, family, bc)
    count = min(count, ops.dim)
    oracle = dense_eigs(ops, count)
    encs = solve_lowest(ops, count)
    assert len(encs) == count
    for i, (enc, lam) in enumerate(zip(encs, oracle)):
        assert enc.lower <= lam <= enc.upper
        assert enc.k == i + 1
        assert enc.width <= 1e-6 * max(1.0, abs(lam))


def test_dense_and_sparse_backends_agree():
    # forced backends on coarse meshes, and on one mesh each side of the
    # cutoff where "auto" switches from one backend to the other
    cases = [
        (n, family, bc)
        for n in (4, 5, 6)
        for family, bc in (
            ("cg", "dirichlet"),
            ("cr", "dirichlet"),
            ("cg", "edge-mean"),
            ("cr", "edge-mean"),
        )
    ]
    below, above = (24, "cg", "edge-mean"), (28, "cg", "dirichlet")
    assert operators(EQ, *below).dim <= DENSE_CUTOFF < operators(EQ, *above).dim
    for n, family, bc in cases + [below, above]:
        ops = operators(EQ, n, family, bc)
        k = min(3, ops.dim - 2)
        if k < 1:
            continue
        d = solve_lowest(ops, k, method="dense")
        s = solve_lowest(ops, k, method="sparse")
        for a, b in zip(d, s):
            rel = abs(a.rayleigh - b.rayleigh) / abs(a.rayleigh)
            assert rel <= 1e-10


@pytest.mark.parametrize("bc, dim", [("dirichlet", 465), ("edge-mean", 558)])
def test_quick_spaces_use_shift_invert(monkeypatch, bc, dim):
    # the conforming CG 32 spaces of the quick proof lie above the measured
    # crossover, so no dense generalized solve may run on them
    ops = operators(0.9, 32, "cg", bc)
    assert ops.dim == dim

    def no_dense(*args, **kwargs):
        raise AssertionError("dense eigh called")

    monkeypatch.setattr("tricert.eigsolve.scipy.linalg.eigh", no_dense)
    e1, e2 = solve_lowest(ops, 2)
    assert e1.upper < e2.lower


def test_method_validation(monkeypatch):
    ops = operators(EQ, 3, "cg", "dirichlet")
    with pytest.raises(ValueError):
        solve_lowest(ops, 1, method="magic")
    with pytest.raises(ValueError):
        solve_lowest(ops, 0)
    with pytest.raises(ValueError):
        solve_lowest(ops, 5)  # only one dof available
    # shift-invert Lanczos yields at most dim - 1 modes, so "auto" sends a
    # full-spectrum request to the dense backend even above the cutoff
    monkeypatch.setattr("tricert.eigsolve.DENSE_CUTOFF", 0)
    for n, bc, dim in ((4, "dirichlet", 3), (5, "dirichlet", 6), (4, "edge-mean", 12)):
        ops = operators(EQ, n, "cg", bc)
        assert ops.dim == dim
        with pytest.raises(ValueError, match="sparse backend"):
            solve_lowest(ops, dim, method="sparse")
        assert len(solve_lowest(ops, dim)) == dim


def test_singular_shift_invert_factor_is_diagnosed():
    ops = operators(EQ, 39, "cg", "dirichlet")
    assert ops.dim > 600  # the sparse backend
    A = ops.A.tolil()
    A[0, :] = 0.0
    A[:, 0] = 0.0
    with pytest.raises(EigensolveError, match="factorisation"):
        solve_lowest(replace(ops, A=A.tocsr()), 2)


def test_determinism():
    ops = operators(EQ, 8, "cg", "dirichlet")
    a = solve_lowest(ops, 2)
    b = solve_lowest(ops, 2)
    for x, y in zip(a, b):
        assert x.rayleigh == y.rayleigh
        assert x.lower == y.lower and x.upper == y.upper
        assert np.array_equal(x.vector, y.vector)


@pytest.mark.parametrize(
    "family, bc, n, theta",
    [
        # theta = 0.05 is the thinnest triangle, so the smallest mass eigenvalue
        pytest.param(family, bc, n, theta, id=f"{family}-{bc}-{n}{suffix}")
        for family, bc in (
            ("cg", "dirichlet"), ("cg", "edge-mean"), ("cr", "dirichlet"), ("cr", "edge-mean")
        )
        for n in (6, 16)
        for theta, suffix in ((EQ, ""), (0.05, "-0.05"))
    ],
)
def test_residual_bound_dominates_true_residual(family, bc, n, theta):
    ops = operators(theta, n, family, bc)
    (enc,) = solve_lowest(ops, 1)
    u, rho = enc.vector, enc.rayleigh
    r = ops.A @ u - rho * (ops.M @ u)
    minv_norm = math.sqrt(float(r @ np.linalg.solve(ops.M.toarray(), r)))
    mass_norm = math.sqrt(float(u @ (ops.M @ u)))
    assert residual_bound(ops, u, rho) >= minv_norm / mass_norm


def test_no_mass_solve(monkeypatch):
    # the residual is certified through the mass eigenvalue bound alone
    def no_cg(*args, **kwargs):
        raise AssertionError("CG solve with M called")

    monkeypatch.setattr("tricert.eigsolve.spla.cg", no_cg)
    ops = operators(0.9, 8, "cg", "edge-mean")
    encs = solve_lowest(ops, 2)
    for enc, lam in zip(encs, dense_eigs(ops, 2)):
        assert lam in enc


def test_unnormalized_vector_enclosure_contains_eigenvalue():
    # delta bounds ||r||_{M^-1} / ||u||_M: a vector of mass norm 1e-6
    # must widen the enclosure by 1e6 against its raw residual norm
    ops = operators(EQ, 8, "cg", "dirichlet")
    vals, vecs = scipy.linalg.eigh(ops.A.toarray(), ops.M.toarray())
    u = 1e-6 * (vecs[:, 0] + 1e-3 * vecs[:, 1])
    enc = _certify(ops, u, 1)
    assert enc.lower <= vals[0] <= enc.upper


def test_gap_refinement_tightens_lower_bound():
    ops = operators(EQ, 12, "cg", "dirichlet")
    e1, e2 = solve_lowest(ops, 2)
    refined = verify_enclosure(e1, (e2,))
    assert refined.gap_refined
    assert refined.lower >= e1.lower
    assert refined.upper <= e1.upper * (1.0 + 1e-15)
    lam1 = dense_eigs(ops, 1)[0]
    assert refined.lower <= lam1 <= refined.upper


def test_gap_refinement_reuses_the_certified_rayleigh_interval(monkeypatch):
    # the Rayleigh interval was certified with the enclosure; refining
    # must read it, not form the two quadratic forms again
    ops = operators(EQ, 12, "cg", "dirichlet")
    e1, e2 = solve_lowest(ops, 2)
    want = verify_enclosure(e1, (e2,))

    def no_quadratic_forms(*args):
        raise AssertionError("verify_enclosure formed a quadratic form")

    monkeypatch.setattr(eigsolve, "quad_form_interval", no_quadratic_forms)
    got = verify_enclosure(e1, (e2,))
    assert got.gap_refined
    assert (got.lower, got.upper) == (want.lower, want.upper)


def test_gap_refinement_skipped_on_overlap():
    ops = operators(EQ, 12, "cg", "dirichlet")
    e1, e2 = solve_lowest(ops, 2)
    fake = replace(e2, lower=e1.upper - 1e-9)
    out = verify_enclosure(e1, (fake,))
    assert not out.gap_refined
    lam1 = dense_eigs(ops, 1)[0]
    assert out.lower <= lam1 <= out.upper


def test_quad_form_interval_contains_exact():
    ops = operators(EQ, 5, "cg", "dirichlet")
    rng = np.random.default_rng(3)
    u = rng.standard_normal(ops.dim)
    iv = quad_form_interval(ops.A, u)
    # float result must be inside, and the radius small
    mid = float(u @ (ops.A @ u))
    assert iv.lo <= mid <= iv.hi
    assert iv.width <= 1e-10 * abs(mid)


def test_first_enclosure_upper_is_rayleigh_bound():
    # lambda_1 <= R(u) unconditionally, so the upper end never exceeds
    # the certified Rayleigh interval top
    ops = operators(EQ, 10, "cr", "edge-mean")
    (enc,) = solve_lowest(ops, 1)
    den = quad_form_interval(ops.M, enc.vector)
    num = quad_form_interval(ops.A, enc.vector)
    assert enc.upper <= (num / den).hi * (1.0 + 1e-12)


@settings(max_examples=20)
@given(
    st.floats(min_value=0.4, max_value=math.pi - 0.6),
    st.integers(min_value=3, max_value=7),
    families,
    bcs,
)
def test_ground_rayleigh_bounds_lambda1_from_above(theta, n, family, bc):
    ops = operators(theta, n, family, bc)
    lam1 = dense_eigs(ops, 1)[0]
    g = ground_rayleigh(ops)
    assert lam1 <= g.rho.hi <= lam1 * (1.0 + 1e-10)
    assert g.rho.width <= 1e-10 * lam1
    assert g.mass_form.lo <= float(g.vector @ (ops.M @ g.vector)) <= g.mass_form.hi


@pytest.mark.parametrize("method", ["dense", "sparse"])
def test_ground_rayleigh_computes_one_mode_and_no_residual(monkeypatch, method):
    # one mode, no guard, and neither a residual bound nor a gap refinement;
    # the cutoff moves so that "auto" picks the backend under test
    ops = operators(0.9, 12, "cg", "edge-mean")
    monkeypatch.setattr(eigsolve, "DENSE_CUTOFF", ops.dim if method == "dense" else 0)
    lam1 = dense_eigs(ops, 1)[0]
    requested = []
    real_eigh, real_eigsh = eigsolve.scipy.linalg.eigh, eigsolve.spla.eigsh

    def recording_eigh(*args, subset_by_index, **kwargs):
        requested.append(("dense", list(subset_by_index)))
        return real_eigh(*args, subset_by_index=subset_by_index, **kwargs)

    def recording_eigsh(A, k, **kwargs):
        requested.append(("sparse", k))
        return real_eigsh(A, k, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("residual certification on the conforming side")

    monkeypatch.setattr(eigsolve.scipy.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(eigsolve.spla, "eigsh", recording_eigsh)
    monkeypatch.setattr(eigsolve, "residual_bound", forbidden)
    monkeypatch.setattr(eigsolve, "verify_enclosure", forbidden)
    g = ground_rayleigh(ops)
    want = ("dense", [0, 0]) if method == "dense" else ("sparse", 1)
    assert requested == [want]
    assert lam1 <= g.rho.hi

