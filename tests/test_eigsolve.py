"""Certified eigenvalue enclosures.

Main honesty property: every enclosure must contain the corresponding
eigenvalue of the dense generalized solve (the oracle), whatever mesh,
family or constraint produced the matrices.  Then determinism, the
dense/sparse agreement, the solves split into mirror-parity halves, and
the gap refinement.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EQ, operators
from tricert.certify import _reference_operators
from tricert import certify, eigsolve
from tricert.bounds import corrected_lower
from tricert.geometry import triangle_from_angle
from tricert.eigsolve import (
    DENSE_CUTOFF,
    EigensolveError,
    _band_pack,
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


def test_dense_and_sparse_backends_agree(monkeypatch):
    # each backend forced by moving the cutoff, on coarse meshes and on
    # one mesh each side of the cutoff where the choice switches
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
    below, above = (16, "cg", "edge-mean"), (19, "cg", "dirichlet")
    assert operators(EQ, *below).dim <= DENSE_CUTOFF < operators(EQ, *above).dim
    for n, family, bc in cases + [below, above]:
        ops = operators(EQ, n, family, bc)
        k = min(3, ops.dim - 2)
        if k < 1:
            continue
        monkeypatch.setattr(eigsolve, "DENSE_CUTOFF", ops.dim)
        d = solve_lowest(ops, k)
        monkeypatch.setattr(eigsolve, "DENSE_CUTOFF", 0)
        s = solve_lowest(ops, k)
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


def test_count_validation(monkeypatch):
    ops = operators(EQ, 3, "cg", "dirichlet")
    with pytest.raises(ValueError):
        solve_lowest(ops, 0)
    with pytest.raises(ValueError):
        solve_lowest(ops, 5)  # only one dof available
    # shift-invert Lanczos yields at most dim - 1 modes, so a full-spectrum
    # request goes to the dense backend even above the cutoff
    monkeypatch.setattr("tricert.eigsolve.DENSE_CUTOFF", 0)
    for n, bc, dim in ((4, "dirichlet", 3), (5, "dirichlet", 6), (4, "edge-mean", 12)):
        ops = operators(EQ, n, "cg", bc)
        assert ops.dim == dim
        assert len(solve_lowest(ops, dim)) == dim


def test_singular_shift_invert_factor_is_diagnosed():
    ops = operators(EQ, 39, "cg", "dirichlet")
    assert ops.dim > 600  # the sparse backend
    A = ops.A.tolil()
    A[0, :] = 0.0
    A[:, 0] = 0.0
    with pytest.raises(EigensolveError, match="factorisation"):
        solve_lowest(replace(ops, A=A.tocsr()), 2)


def test_singular_banded_factor_is_diagnosed():
    # the banded twin: a zero pivot in a banded half ends its Cholesky
    # factorisation
    ops = _reference_operators(32, "cr", "dirichlet").mapped(triangle_from_angle(EQ))
    half = ops.halves[0]
    assert half.band is not None and half.dim > DENSE_CUTOFF
    A = half.A.tolil()
    A[0, :] = 0.0
    A[:, 0] = 0.0
    singular = replace(half, A=A.tocsr())
    with pytest.raises(EigensolveError, match="factorisation"):
        solve_lowest(replace(ops, halves=(singular, *ops.halves[1:])), 2)


@pytest.mark.parametrize("method", ["dense", "sparse"])
def test_every_backend_failure_is_diagnosed(monkeypatch, method):
    # a failure of either backend, not only ARPACK's non-convergence, is an
    # EigensolveError, which the proof turns into a diagnosed verdict
    ops = operators(0.9, 12, "cg", "edge-mean")
    monkeypatch.setattr(eigsolve, "DENSE_CUTOFF", ops.dim if method == "dense" else 0)

    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("leading minor not positive definite")

    def failing_eigsh(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackError(-9999)

    monkeypatch.setattr(eigsolve.scipy.linalg, "eigh", failing_eigh)
    monkeypatch.setattr(eigsolve.spla, "eigsh", failing_eigsh)
    with pytest.raises(EigensolveError):
        solve_lowest(ops, 2)
    with pytest.raises(EigensolveError):
        ground_rayleigh(ops, 0.0)


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
    g = ground_rayleigh(ops, 0.0)
    assert lam1 <= g.rho.hi <= lam1 * (1.0 + 1e-10)
    assert g.rho.width <= 1e-10 * lam1
    assert g.mass_form.lo <= float(g.vector @ (ops.M @ g.vector)) <= g.mass_form.hi


@pytest.mark.parametrize("method", ["dense", "sparse"])
def test_ground_rayleigh_computes_one_mode_and_no_residual(monkeypatch, method):
    # one mode, no guard, and neither a residual bound nor a gap refinement;
    # the cutoff moves so that the backend under test is picked
    ops = operators(0.9, 12, "cg", "edge-mean")
    monkeypatch.setattr(eigsolve, "DENSE_CUTOFF", ops.dim if method == "dense" else 0)
    lam1 = dense_eigs(ops, 1)[0]
    requested = []
    real_eigh, real_eigsh = eigsolve.scipy.linalg.eigh, eigsolve.spla.eigsh

    def recording_eigh(*args, subset_by_index, **kwargs):
        requested.append(("dense", list(subset_by_index)))
        return real_eigh(*args, subset_by_index=subset_by_index, **kwargs)

    def recording_eigsh(A, k, **kwargs):
        requested.append(("sparse", k, kwargs["sigma"], kwargs["ncv"]))
        return real_eigsh(A, k, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("residual certification on the conforming side")

    monkeypatch.setattr(eigsolve.scipy.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(eigsolve.spla, "eigsh", recording_eigsh)
    monkeypatch.setattr(eigsolve, "residual_bound", forbidden)
    monkeypatch.setattr(eigsolve, "verify_enclosure", forbidden)
    below = 0.9 * lam1
    g = ground_rayleigh(ops, below)
    want = ("dense", [0, 0]) if method == "dense" else ("sparse", 1, below, eigsolve.GROUND_NCV)
    assert requested == [want]
    assert lam1 <= g.rho.hi


def _count_factor_solves(monkeypatch) -> list:
    """Record every solve with a shift-invert factor made from now on, by
    either backend (SuperLU or banded Cholesky), as the index of the
    factor, in the order the factors were made."""
    solves = []
    made = [0]

    class Counted:
        def __init__(self, lu):
            self._lu = lu
            self._k = made[0]
            made[0] += 1

        def solve(self, b):
            solves.append(self._k)
            return self._lu.solve(b)

    for owner, name in ((eigsolve.spla, "splu"), (eigsolve, "_BandCholesky")):
        real = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *args, real=real, **kwargs: Counted(real(*args, **kwargs))
        )
    return solves


@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
@pytest.mark.parametrize("theta", [0.1, 0.9, EQ], ids=["0.1", "0.9", "fl(pi/3)"])
def test_shifted_ground_solve_agrees_in_few_factor_solves(monkeypatch, bc, theta):
    # shifted to the corrected CR bound, as compute_point does, the
    # conforming solve at CG 96 / CR 64 needs a handful of factor solves
    # instead of ARPACK's default 21 and returns the same Rayleigh bound.
    # The agreement is limited by the float Rayleigh quotient, not by the
    # shift: on the thin edge-mean triangle (theta = 0.1) its terms cancel,
    # and two unshifted solves that differ only in ncv already give rho.hi
    # 2e-12 apart, against a certified width of 1e-6
    cr = operators(theta, 64, "cr", bc)
    e1, e2 = solve_lowest(cr, 2)
    below = corrected_lower(verify_enclosure(e1, (e2,)), cr.space.mesh.h)
    ops = operators(theta, 96, "cg", bc)
    assert ops.dim > DENSE_CUTOFF
    plain = ground_rayleigh(ops, 0.0)
    solves = _count_factor_solves(monkeypatch)
    shifted = ground_rayleigh(ops, below)
    assert below < plain.rho.lo
    assert math.isclose(shifted.rho.hi, plain.rho.hi, rel_tol=1e-11)
    assert 0 < len(solves) <= 10


@pytest.mark.parametrize(
    "where, bc, backend",
    [
        pytest.param(where, bc, backend, id=f"{where}-{bc}{suffix}")
        for backend, suffix in (("superlu", ""), ("banded", "-banded"))
        for bc in ("dirichlet", "edge-mean")
        for where in ("between-1-2", "above-2")
    ],
)
def test_shift_above_lambda1_never_lowers_the_bound(where, bc, backend):
    # a shift at or above the ground eigenvalue (a wrong CR index) steers
    # Lanczos elsewhere; the Rayleigh bound may only grow, or the solve
    # ends in a diagnosed error.  A - sigma M is then indefinite on the
    # symmetric half, which holds the ground mode, so the banded Cholesky
    # factorisation of that half always fails
    ops = operators(0.9, 32, "cg", bc)
    assert ops.dim > DENSE_CUTOFF
    lam1, lam2, lam3 = dense_eigs(ops, 3)
    sigma = 0.5 * (lam1 + lam2) if where == "between-1-2" else 0.5 * (lam2 + lam3)
    if backend == "banded":
        ops = _reference_operators(32, "cg", bc).mapped(triangle_from_angle(0.9))
        assert ops.halves[0].band is not None and ops.halves[0].dim > DENSE_CUTOFF
        with pytest.raises(EigensolveError, match="factorisation"):
            ground_rayleigh(ops, sigma)
        return
    try:
        g = ground_rayleigh(ops, sigma)
    except EigensolveError:
        return
    assert lam1 <= g.rho.hi


@pytest.mark.parametrize(
    "n, bc, theta",
    [(64, "edge-mean", 0.5), (64, "edge-mean", 0.9), (64, "dirichlet", 0.5), (128, "dirichlet", EQ)],
    ids=["cr64-edge-mean-0.5", "cr64-edge-mean-0.9", "cr64-dirichlet-0.5", "cr128-dirichlet-fl(pi/3)"],
)
def test_cr_solve_stops_at_the_lanczos_tolerance(monkeypatch, n, bc, theta):
    # converging past LANCZOS_TOL costs restart cycles that move no
    # certified number (test_residual_floor_does_not_need_a_tighter_tolerance);
    # at ARPACK's machine-precision default these solves take 36 to 51
    ops = operators(theta, n, "cr", bc)
    assert ops.dim > DENSE_CUTOFF
    solves = _count_factor_solves(monkeypatch)
    solve_lowest(ops, 2)
    assert 0 < len(solves) <= 25


@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
@pytest.mark.parametrize("theta", [0.3, 0.8, 1.04, EQ], ids=["0.3", "0.8", "1.04", "fl(pi/3)"])
def test_cr_modes_carry_the_index_of_the_dense_oracle(bc, theta):
    # the index of each CR enclosure is the solver's ordering, the one
    # trusted step.  Lanczos starts from v0 = ones, which is exactly
    # mirror-symmetric on the Dirichlet meshes (the triangle is isosceles
    # and the mesh shares its mirror), so in exact arithmetic the Krylov
    # space holds no antisymmetric mode.  For theta < pi/3 the lowest
    # antisymmetric mode lies above lambda_2 (it is lambda_3 at 0.8 and
    # 1.04), so only the uncertified guard relies on rounding to appear
    ops = operators(theta, 32, "cr", bc)
    assert ops.dim > DENSE_CUTOFF
    e1, e2 = solve_lowest(ops, 2)
    lam1, lam2 = dense_eigs(ops, 2)
    assert lam1 in e1
    assert lam2 in e2


@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
@pytest.mark.parametrize("theta", [0.8, 1.04, EQ], ids=["0.8", "1.04", "fl(pi/3)"])
def test_proof_maps_label_cr_modes_as_the_dense_oracle(bc, theta):
    # the proof's own quick-size maps are solved in their halves, each
    # from its own v0 = ones, so no mode relies on rounding to appear: the
    # enclosures labelled 1 and 2 hold dense lambda_1 and lambda_2.  At
    # fl(pi/3), lambda_2 ~ lambda_3 lie in different halves
    ops = _reference_operators(32, "cr", bc).mapped(triangle_from_angle(theta))
    assert len(ops.halves) == 2 and min(h.dim for h in ops.halves) > DENSE_CUTOFF
    e1, e2 = solve_lowest(ops, 2)
    lam1, lam2 = scipy.linalg.eigh(
        ops.A.toarray(), ops.M.toarray(), eigvals_only=True, subset_by_index=[0, 1]
    )
    assert lam1 in e1
    assert lam2 in e2
    if theta == EQ:
        lowest = sorted(
            (lam, parity)
            for parity, h in enumerate(ops.halves)
            for lam in scipy.linalg.eigh(
                h.A.toarray(), h.M.toarray(), eigvals_only=True, subset_by_index=[0, 1]
            )
        )
        assert {lowest[1][1], lowest[2][1]} == {0, 1}


@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
def test_residual_floor_does_not_need_a_tighter_tolerance(monkeypatch, bc):
    # delta is set by the running-error majorant, not by the true residual,
    # so converging to machine precision leaves it where it is
    ops = operators(0.9, 64, "cr", bc)
    default = solve_lowest(ops, 2)
    monkeypatch.setattr(eigsolve, "LANCZOS_TOL", 0.0)
    tight = solve_lowest(ops, 2)
    for d, t in zip(default, tight):
        assert math.isclose(d.residual_bound, t.residual_bound, rel_tol=0.1)


# mirror-parity halves -------------------------------------------------------


def mapped_with_halves(theta, n, family, bc, parities=(0, 1)):
    ref = _reference_operators(n, family, bc).with_halves(parities)
    return ref.mapped(triangle_from_angle(theta))


def _record_backend_dims(monkeypatch) -> list:
    """Record the dimension of every backend run made from now on."""
    dims = []
    real = eigsolve._lowest_modes

    def recording(target, k, **kwargs):
        dims.append(target.dim)
        return real(target, k, **kwargs)

    monkeypatch.setattr(eigsolve, "_lowest_modes", recording)
    return dims


@pytest.mark.parametrize("family, bc", [("cr", "dirichlet"), ("cr", "edge-mean")])
@pytest.mark.parametrize("n", [12, 24])
@pytest.mark.parametrize("theta", [0.3, 1.0, EQ], ids=["0.3", "1.0", "fl(pi/3)"])
def test_split_enclosures_contain_dense_oracle(theta, n, family, bc):
    # the halves only steer the solver: each enclosure is certified on the
    # whole operators and must hold the whole pencil's eigenvalue of its
    # index, on half spaces small enough for either backend
    ops = mapped_with_halves(theta, n, family, bc)
    oracle = dense_eigs(ops, 3)
    whole = solve_lowest(replace(ops, halves=()), 3)
    split = solve_lowest(ops, 3)
    for i, (w, enc, lam) in enumerate(zip(whole, split, oracle)):
        assert enc.k == i + 1
        assert enc.lower <= lam <= enc.upper
        assert math.isclose(enc.rayleigh, w.rayleigh, rel_tol=1e-10)


@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
@pytest.mark.parametrize("theta", [0.3, EQ], ids=["0.3", "fl(pi/3)"])
def test_split_ground_rayleigh_uses_one_half(monkeypatch, bc, theta):
    # the conforming solve runs in the half of the ground mode alone; the
    # other half only raises the Rayleigh bound, never below lambda_1
    ops = mapped_with_halves(theta, 24, "cg", bc)
    lam1 = dense_eigs(ops, 1)[0]
    whole = ground_rayleigh(replace(ops, halves=()), 0.9 * lam1)
    dims = _record_backend_dims(monkeypatch)
    ground = ground_rayleigh(ops, 0.9 * lam1)  # the first half, the symmetric one
    other = ground_rayleigh(replace(ops, halves=ops.halves[1:]), 0.9 * lam1)
    assert dims == [ops.halves[0].dim, ops.halves[1].dim]
    assert math.isclose(ground.rho.hi, whole.rho.hi, rel_tol=1e-10)
    assert lam1 <= ground.rho.hi < other.rho.lo


def test_split_solve_finds_the_antisymmetric_mode_in_one_cycle(monkeypatch):
    # v0 = ones is mirror-symmetric, so a whole-space run on CR 64
    # Dirichlet at theta = 1.0 meets the antisymmetric lambda_3 = 128.3
    # only through rounding, after a second ARPACK restart cycle (36
    # factor solves against 21; before that cycle its third mode is
    # lambda_4 = 215.3).  Each half holds its own modes from the start, so
    # the split's third candidate is lambda_3 of a random-start oracle,
    # and each half's run converges in one cycle
    ops = _reference_operators(64, "cr", "dirichlet").mapped(triangle_from_angle(1.0))
    assert len(ops.halves) == 2
    v0 = np.random.default_rng(2).standard_normal(ops.dim)
    oracle = np.sort(scipy.sparse.linalg.eigsh(ops.A, k=4, M=ops.M, sigma=0.0, v0=v0)[0])
    assert 128.0 < oracle[2] < 129.0 < 215.0 < oracle[3] < 216.0
    solves = _count_factor_solves(monkeypatch)
    vecs = eigsolve._split_modes(ops.halves, 3)
    ritz = [float(v @ (ops.A @ v)) / float(v @ (ops.M @ v)) for v in vecs.T]
    assert np.allclose(ritz, oracle[:3], rtol=1e-10)
    assert sorted(set(solves)) == [0, 1]  # one factor per half
    assert all(solves.count(k) <= 25 for k in (0, 1))


@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
@pytest.mark.parametrize("theta", [0.3, 0.9, EQ], ids=["0.3", "0.9", "fl(pi/3)"])
def test_one_half_is_solved_whole(monkeypatch, bc, theta):
    # a conforming map carries the symmetric half alone, which lacks the
    # antisymmetric modes: solve_lowest solves the whole space instead
    ops = mapped_with_halves(theta, 24, "cg", bc, parities=(0,))
    dims = _record_backend_dims(monkeypatch)
    encs = solve_lowest(ops, 3)
    assert dims == [ops.dim]
    for i, (enc, lam) in enumerate(zip(encs, dense_eigs(ops, 3))):
        assert enc.k == i + 1
        assert enc.lower <= lam <= enc.upper


# banded Cholesky -------------------------------------------------------------


def proof_and_superlu_operators(monkeypatch, theta, n, family, bc):
    """The operators of T(theta) as _reference_operators maps them, and the
    same operators with BAND_CUTOFF = 0, so on SuperLU alone: the reference."""
    tri = triangle_from_angle(theta)
    proof = certify._reference_operators(n, family, bc).mapped(tri)
    # the backend of a half is fixed when its map is built, so the reference
    # map is built past the cache, which keeps the proof's maps
    with monkeypatch.context() as patch:
        patch.setattr(certify, "BAND_CUTOFF", 0)
        superlu = certify._reference_operators.__wrapped__(n, family, bc).mapped(tri)
    return proof, superlu


@pytest.mark.parametrize(
    "family, n, bc, bands",
    [
        ("cr", 16, "dirichlet", (True, True)),
        ("cr", 32, "dirichlet", (True, True)),
        ("cg", 28, "dirichlet", (True,)),
        ("cg", 40, "dirichlet", (True,)),
        ("cr", 32, "edge-mean", (False, True)),
        ("cg", 32, "edge-mean", (True,)),
    ],
    ids=[
        "cr16-halves", "cr32-halves", "cg28-half", "cg40-half",
        "cr32-edge-mean-halves", "cg32-edge-mean-half",
    ],
)
@pytest.mark.parametrize("theta", [0.3, 1.0, EQ], ids=["0.3", "1.0", "fl(pi/3)"])
def test_banded_solves_contain_the_dense_oracle(monkeypatch, theta, family, n, bc, bands):
    # the band order only steers the solver: the CR enclosures and the
    # shifted CG Rayleigh bound are certified on the whole operators, hold
    # the dense oracle, and agree with SuperLU's solve of the same space
    proof, superlu = proof_and_superlu_operators(monkeypatch, theta, n, family, bc)
    assert tuple(h.band is not None for h in proof.halves) == bands
    assert all(h.dim > DENSE_CUTOFF for h in proof.halves)
    assert all(h.band is None for h in superlu.halves)
    vals = scipy.linalg.eigh(
        proof.A.toarray(), proof.M.toarray(), eigvals_only=True, subset_by_index=[0, 1]
    )
    if family == "cr":
        banded, reference = solve_lowest(proof, 2), solve_lowest(superlu, 2)
        for enc, ref, lam in zip(banded, reference, vals):
            assert enc.lower <= lam <= enc.upper
            assert math.isclose(enc.rayleigh, ref.rayleigh, rel_tol=1e-10)
    else:
        below = 0.99 * vals[0]
        banded, reference = ground_rayleigh(proof, below), ground_rayleigh(superlu, below)
        assert vals[0] <= banded.rho.hi
        assert math.isclose(banded.rho.hi, reference.rho.hi, rel_tol=1e-10)


@pytest.mark.parametrize(
    "family, n, sigma",
    [("cr", 32, 0.0), ("cg", 32, 0.0), ("cg", 32, 61.5), ("cg", 96, 57.25)],
    ids=["cr32", "cg32", "cg32-shifted", "cg96-half-shifted"],
)
def test_band_pack_holds_the_permuted_upper_triangle(family, n, sigma):
    # LAPACK upper band storage: entry (i, j), i <= j, of the permuted
    # matrix at [w + i - j, j]; the rest of the array is zero
    ops = _reference_operators(n, family, "dirichlet").mapped(triangle_from_angle(0.9))
    assert len(ops.halves) == (2 if family == "cr" else 1)
    for target in ops.halves:
        band, w, size = target.band, target.band.width, target.dim
        assert w <= eigsolve.BAND_CUTOFF
        ab = _band_pack(target, band, sigma)
        assert ab.shape == (w + 1, size) and ab.flags.f_contiguous
        rows, j = np.nonzero(ab)
        i = rows - w + j
        assert i.min() >= 0  # nothing in the unused corner of the array
        unpacked = scipy.sparse.csr_matrix((ab[rows, j], (i, j)), shape=(size, size))
        shifted = target.A - sigma * target.M if sigma else target.A
        want = scipy.sparse.triu(shifted[band.perm][:, band.perm], format="csr")
        want.eliminate_zeros()
        assert unpacked.nnz == want.nnz
        assert (unpacked != want).nnz == 0
