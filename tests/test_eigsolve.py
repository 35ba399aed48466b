"""Certified eigenvalue enclosures.

Main honesty property: every enclosure must contain the corresponding
eigenvalue of the dense generalized solve (the oracle), whatever mesh,
family or constraint produced the matrices.  Then determinism, the
agreement of the Lanczos modes with the dense oracle, the solves split
into mirror-parity halves, the floor that certifies a CR antisymmetric
half unsolved, and the gap refinement.  Every solve runs in the parts
the operators carry: helpers.operators maps each space with the whole
space as its one part.  Dense LAPACK serves only requests for as many
modes as a part has unknowns; every other part runs Lanczos.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    EQ,
    assemble_on_angle,
    ground_rayleigh,
    operators,
    superlu_eigenvalues,
    two_half_solve,
)
from tricert.certify import _reference_operators, compute_point
from tricert import eigsolve
from tricert.bounds import corrected_lower
from tricert.fem import INVARIANT
from tricert.geometry import triangle_from_angle
from tricert.eigsolve import (
    EigensolveError,
    _band_pack,
    _certify,
    _product_pass,
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
    # the Lanczos modes of solve_lowest agree with the dense oracle of the
    # whole pencil, on coarse meshes and on two larger ones
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
    for n, family, bc in cases + [(12, "cg", "edge-mean"), (15, "cg", "dirichlet")]:
        ops = operators(EQ, n, family, bc)
        k = min(3, ops.dim - 2)
        if k < 1:
            continue
        for enc, lam in zip(solve_lowest(ops, k), dense_eigs(ops, k)):
            assert abs(enc.rayleigh - lam) <= 1e-10 * abs(lam)


@pytest.mark.parametrize("bc, dim", [("dirichlet", 465), ("edge-mean", 558)])
def test_quick_spaces_use_shift_invert(monkeypatch, bc, dim):
    # the conforming CG 32 spaces of the quick proof have far more
    # unknowns than modes asked for, so no dense generalized solve may run
    # on them
    ops = operators(0.9, 32, "cg", bc)
    assert ops.dim == dim

    def no_dense(*args, **kwargs):
        raise AssertionError("dense eigh called")

    monkeypatch.setattr("tricert.eigsolve.scipy.linalg.eigh", no_dense)
    e1, e2 = solve_lowest(ops, 2)
    assert e1.upper < e2.lower


def test_count_validation():
    ops = operators(EQ, 3, "cg", "dirichlet")
    with pytest.raises(ValueError):
        solve_lowest(ops, 0)
    with pytest.raises(ValueError):
        solve_lowest(ops, 5)  # only one dof available
    # Lanczos yields at most dim - 1 modes, so a full-spectrum request
    # goes to the dense backend
    for n, bc, dim in ((4, "dirichlet", 3), (5, "dirichlet", 6), (4, "edge-mean", 12)):
        ops = operators(EQ, n, "cg", bc)
        assert ops.dim == dim
        encs = solve_lowest(ops, dim)
        assert len(encs) == dim
        for enc, lam in zip(encs, dense_eigs(ops, dim)):
            assert lam in enc


@pytest.mark.parametrize(
    "family, bc, n",
    [
        (family, bc, n)
        for family, bc in (
            ("cg", "dirichlet"), ("cg", "edge-mean"), ("cr", "dirichlet"), ("cr", "edge-mean")
        )
        for n in range(4, 9)
        # CG 4 Dirichlet has 3 unknowns, so two modes and a guard are all
        # of them: a request only dense LAPACK serves (test_count_validation)
        if (family, bc, n) != ("cg", "dirichlet", 4)
    ],
)
@pytest.mark.parametrize("layout", ["whole", "halves"])
def test_lanczos_solves_every_part_larger_than_its_request(monkeypatch, family, bc, n, layout):
    # dense LAPACK runs only where Lanczos cannot, on a part with no more
    # unknowns than modes asked for: the smallest spaces, solved whole or
    # in their mirror halves, still go to Lanczos and hold the dense oracle
    if layout == "whole":
        ops = operators(0.9, n, family, bc)
    else:
        ops = mapped_with_halves(0.9, n, family, bc)
        assert len(ops.halves) == 2
    lam1, lam2 = dense_eigs(ops, 2)

    def no_dense(*args, **kwargs):
        raise AssertionError("dense eigh called")

    monkeypatch.setattr("tricert.eigsolve.scipy.linalg.eigh", no_dense)
    e1, e2 = solve_lowest(ops, 2)
    assert lam1 in e1 and lam2 in e2
    assert lam1 <= ground_rayleigh(ops, 0.0).rho.hi


def test_singular_banded_factor_is_diagnosed():
    # a zero pivot in a banded half ends its Cholesky factorisation
    ops = _reference_operators(32, "cr", "dirichlet").mapped(triangle_from_angle(EQ))
    half = ops.halves[0]
    # zeroed in place: a half's A stays on the pattern its band slots index
    A = half.A.copy()
    rows = np.repeat(np.arange(half.dim), np.diff(A.indptr))
    A.data[(rows == 0) | (A.indices == 0)] = 0.0
    singular = replace(half, A=A)
    with pytest.raises(EigensolveError, match="factorisation"):
        solve_lowest(replace(ops, halves=(singular, *ops.halves[1:])), 2)


@pytest.mark.parametrize("method", ["dense", "sparse"])
def test_every_backend_failure_is_diagnosed(monkeypatch, method):
    # a failure of either backend, not only ARPACK's non-convergence, is an
    # EigensolveError, which the proof turns into a diagnosed verdict.
    # Only the backend under test fails: the one unknown of CG 3 Dirichlet
    # is a part no larger than any request, which only dense LAPACK
    # serves, and CG 12 edge-mean goes to Lanczos
    if method == "dense":
        ops, count = operators(EQ, 3, "cg", "dirichlet"), 1

        def failing_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("leading minor not positive definite")

        monkeypatch.setattr(eigsolve.scipy.linalg, "eigh", failing_eigh)
    else:
        ops, count = operators(0.9, 12, "cg", "edge-mean"), 2

        def failing_eigsh(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        monkeypatch.setattr(eigsolve.spla, "eigsh", failing_eigsh)
    with pytest.raises(EigensolveError):
        solve_lowest(ops, count)
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
    enc = _certify(ops, _product_pass(ops, [u])[0], 1)
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
    # one mode, no guard, and neither a residual bound nor a gap
    # refinement; the one-unknown CG 3 Dirichlet part goes to dense LAPACK,
    # which returns its whole spectrum, CG 12 edge-mean to Lanczos
    if method == "dense":
        ops = operators(EQ, 3, "cg", "dirichlet")
    else:
        ops = operators(0.9, 12, "cg", "edge-mean")
    lam1 = dense_eigs(ops, 1)[0]
    requested = []
    real_eigh, real_eigsh = eigsolve.scipy.linalg.eigh, eigsolve.spla.eigsh

    def recording_eigh(*args, **kwargs):
        requested.append(("dense", kwargs))
        return real_eigh(*args, **kwargs)

    def recording_eigsh(A, k, **kwargs):
        requested.append(("sparse", k, kwargs["ncv"]))
        return real_eigsh(A, k, **kwargs)

    real_factor = eigsolve._BandCholesky

    def recording_factor(half, sigma):
        requested.append(("factor", sigma))
        return real_factor(half, sigma)

    def forbidden(*args, **kwargs):
        raise AssertionError("residual certification on the conforming side")

    monkeypatch.setattr(eigsolve.scipy.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(eigsolve.spla, "eigsh", recording_eigsh)
    monkeypatch.setattr(eigsolve, "_BandCholesky", recording_factor)
    monkeypatch.setattr(eigsolve, "residual_bound", forbidden)
    monkeypatch.setattr(eigsolve, "verify_enclosure", forbidden)
    below = 0.9 * lam1
    g = ground_rayleigh(ops, below)
    if method == "dense":
        assert requested == [("dense", {})]
    else:  # A - below M is factorised, and Lanczos runs on its operator
        assert requested == [("factor", below), ("sparse", 1, eigsolve.GROUND_NCV)]
    assert lam1 <= g.rho.hi


def _count_operator_applications(monkeypatch) -> list:
    """Record every application of a Lanczos operator U^{-T} M U^{-1}
    made from now on, as the index of its factor U, in the order the
    factors were made.  Each is one step of ARPACK's reverse
    communication."""
    applied = []
    made = [0]
    real = eigsolve._BandCholesky

    class Counted(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._k = made[0]
            made[0] += 1

        def matvec(self, y):
            applied.append(self._k)
            return super().matvec(y)

    monkeypatch.setattr(eigsolve, "_BandCholesky", Counted)
    return applied


def _count_factorisations(monkeypatch) -> list:
    """Record the order of every banded Cholesky factorisation made from
    now on."""
    orders = []
    real = eigsolve.scipy.linalg.lapack.dpbtrf

    def counted(ab, *args, **kwargs):
        orders.append(ab.shape[1])
        return real(ab, *args, **kwargs)

    monkeypatch.setattr(eigsolve.scipy.linalg.lapack, "dpbtrf", counted)
    return orders


@pytest.mark.parametrize("problem", ["dirichlet", "cr-constant"])
def test_every_lanczos_run_is_in_standard_form(monkeypatch, problem):
    # every Lanczos run of a point solve is ARPACK's standard mode on the
    # symmetric operator U^{-T} M U^{-1} of its part's Cholesky factor: it
    # gets no mass matrix, shift or inverse operator, so each of ARPACK's
    # reverse-communication steps is one application of that operator
    calls = []
    real = eigsolve.spla.eigsh

    def recording(A, k, **kwargs):
        calls.append((A, set(kwargs)))
        return real(A, k, **kwargs)

    monkeypatch.setattr(eigsolve.spla, "eigsh", recording)
    compute_point(problem, 0.9, cg_n=32, cr_n=32)  # the quick sizes: every solved half runs Lanczos
    assert len(calls) == 2  # the CR symmetric half, the CG half
    for A, kwargs in calls:
        assert isinstance(A, scipy.sparse.linalg.LinearOperator)
        assert not kwargs & {"M", "sigma", "OPinv", "Minv", "mode"}


@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
@pytest.mark.parametrize("theta", [0.1, 0.9, EQ], ids=["0.1", "0.9", "fl(pi/3)"])
def test_shifted_ground_solve_agrees_in_few_factor_solves(monkeypatch, bc, theta):
    # shifted to the corrected CR bound, as compute_point does, the
    # conforming solve at CG 96 / CR 64 needs a handful of operator
    # applications (5 to 8) instead of ARPACK's default 21 and returns the
    # same Rayleigh bound.
    # The agreement is limited by the float Rayleigh quotient, not by the
    # shift: on the thin edge-mean triangle (theta = 0.1) its terms cancel,
    # and two unshifted solves that differ only in ncv already give rho.hi
    # 2e-12 apart, against a certified width of 1e-6
    cr = operators(theta, 64, "cr", bc)
    e1, e2 = solve_lowest(cr, 2)
    below = corrected_lower(verify_enclosure(e1, (e2,)), cr.space.mesh.h)
    ops = operators(theta, 96, "cg", bc)
    plain = ground_rayleigh(ops, 0.0)
    solves = _count_operator_applications(monkeypatch)
    shifted = ground_rayleigh(ops, below)
    assert below < plain.rho.lo
    assert math.isclose(shifted.rho.hi, plain.rho.hi, rel_tol=1e-11)
    assert 0 < len(solves) <= 10


@pytest.mark.parametrize(
    "where, bc, part",
    [
        pytest.param(where, bc, part, id=f"{where}-{bc}{suffix}")
        for part, suffix in (("whole", ""), ("half", "-banded"))
        for bc in ("dirichlet", "edge-mean")
        for where in ("between-1-2", "above-2")
    ],
)
def test_shift_above_lambda1_never_lowers_the_bound(where, bc, part):
    # a shift at or above the ground eigenvalue (a wrong CR index) must
    # not lower the Rayleigh bound.  A - sigma M is then indefinite on the
    # whole part and on the symmetric half, both of which hold the ground
    # mode, so the banded Cholesky factorisation of either always fails
    ops = operators(0.9, 32, "cg", bc)
    lam1, lam2, lam3 = dense_eigs(ops, 3)
    sigma = 0.5 * (lam1 + lam2) if where == "between-1-2" else 0.5 * (lam2 + lam3)
    if part == "half":
        ops = _reference_operators(32, "cg", bc).mapped(triangle_from_angle(0.9))
    with pytest.raises(EigensolveError, match="factorisation"):
        ground_rayleigh(ops, sigma)


@pytest.mark.parametrize(
    "n, bc, theta",
    [(64, "edge-mean", 0.5), (64, "edge-mean", 0.9), (64, "dirichlet", 0.5), (128, "dirichlet", EQ)],
    ids=["cr64-edge-mean-0.5", "cr64-edge-mean-0.9", "cr64-dirichlet-0.5", "cr128-dirichlet-fl(pi/3)"],
)
def test_cr_solve_stops_at_the_lanczos_tolerance(monkeypatch, n, bc, theta):
    # converging past LANCZOS_TOL costs restart cycles that move no
    # certified number (test_residual_floor_does_not_need_a_tighter_tolerance).
    # The proof's solve runs Lanczos in the symmetric half alone, which
    # stops in one cycle of 24 operator applications; the antisymmetric
    # half is factorised once, at the floor, and applies no operator.
    # (Run whole at fl(pi/3), the double lambda_2 = lambda_3 takes 43 at
    # either tolerance.)
    ops = _reference_operators(n, "cr", bc).mapped(triangle_from_angle(theta))
    solves = _count_operator_applications(monkeypatch)
    factorised = _count_factorisations(monkeypatch)
    solve_lowest(ops, 2)
    assert set(solves) == {0} and len(solves) <= 25  # one Lanczos run
    assert factorised == [ops.halves[0].dim, ops.halves[1].dim]


@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
@pytest.mark.parametrize("theta", [0.3, 0.8, 1.04, EQ], ids=["0.3", "0.8", "1.04", "fl(pi/3)"])
def test_cr_modes_carry_the_index_of_the_dense_oracle(bc, theta):
    # the index of each CR enclosure is the solver's ordering, the one
    # trusted step.  Lanczos starts from y0 = ones in the whole part's
    # coordinates, which has a component in each parity basis, and so has
    # U^{-1} y0, so its Krylov space holds modes of both halves from the
    # start
    ops = operators(theta, 32, "cr", bc)
    e1, e2 = solve_lowest(ops, 2)
    lam1, lam2 = dense_eigs(ops, 2)
    assert lam1 in e1
    assert lam2 in e2


@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
@pytest.mark.parametrize("theta", [0.8, 1.04, EQ], ids=["0.8", "1.04", "fl(pi/3)"])
def test_proof_maps_label_cr_modes_as_the_dense_oracle(bc, theta):
    # the proof's own quick-size maps are solved in their symmetric half,
    # from its own y0 = ones, so no mode relies on rounding to appear, and
    # the antisymmetric half is certified above lambda_2's floor: the
    # enclosures labelled 1 and 2 hold dense lambda_1 and lambda_2.  At
    # fl(pi/3), lambda_2 ~ lambda_3 lie in different halves
    ops = _reference_operators(32, "cr", bc).mapped(triangle_from_angle(theta))
    assert len(ops.halves) == 2
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


def mapped_with_halves(theta, n, family, bc, parts=((0,), (1,))):
    ref = _reference_operators(n, family, bc).with_halves(parts)
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
    # index, on spaces small enough for a dense oracle, and agree
    # with the solve in the whole part.  Two modes, as the proof asks for:
    # at theta = 1.0 and fl(pi/3) lambda_3 is antisymmetric, and only the
    # symmetric half is solved
    ops = mapped_with_halves(theta, n, family, bc)
    oracle = dense_eigs(ops, 2)
    whole = solve_lowest(operators(theta, n, family, bc), 2)
    split = solve_lowest(ops, 2)
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
    whole = ground_rayleigh(operators(theta, 24, "cg", bc), 0.9 * lam1)
    dims = _record_backend_dims(monkeypatch)
    ground = ground_rayleigh(ops, 0.9 * lam1)  # the first half, the symmetric one
    other = ground_rayleigh(replace(ops, halves=ops.halves[1:]), 0.9 * lam1)
    assert dims == [ops.halves[0].dim, ops.halves[1].dim]
    assert math.isclose(ground.rho.hi, whole.rho.hi, rel_tol=1e-10)
    assert lam1 <= ground.rho.hi < other.rho.lo


@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
@pytest.mark.parametrize("n", [8, 12, 16, 24, 32])
def test_invariant_ground_rayleigh_agrees_with_the_symmetric_half(bc, n):
    # at fl(pi/3) the ground mode lies in the part invariant under the
    # mirror and the rotation, a third of the symmetric half; solved there
    # and certified on the same whole operators, it gives the half's
    # Rayleigh bound to rounding, just above the dense lambda_1
    tri = triangle_from_angle(EQ)
    half = _reference_operators(n, "cg", bc).mapped(tri)
    part = _reference_operators(n, "cg", bc, ((INVARIANT,),)).mapped(tri)
    assert part.halves[0].dim < half.halves[0].dim
    lam1 = dense_eigs(part, 1)[0]
    got, want = (ground_rayleigh(ops, 0.9 * lam1).rho.hi for ops in (part, half))
    assert math.isclose(got, want, rel_tol=1e-12)
    assert lam1 <= got <= lam1 * (1.0 + 1e-10)


def test_split_solve_runs_lanczos_in_the_symmetric_half_only(monkeypatch):
    # on CR 64 Dirichlet at theta = 1.0 the antisymmetric lambda_3 = 128.3
    # lies above lambda_2, as at every angle of the proofs, so only the
    # symmetric half is solved, in one cycle of at most 25 operator
    # applications, and the antisymmetric half is certified above the
    # floor below lambda_2 by one factorisation, which applies no
    # operator.  The enclosures hold lambda_1 and lambda_2 of a
    # random-start oracle
    ops = _reference_operators(64, "cr", "dirichlet").mapped(triangle_from_angle(1.0))
    assert len(ops.halves) == 2
    v0 = np.random.default_rng(2).standard_normal(ops.dim)
    oracle = np.sort(scipy.sparse.linalg.eigsh(ops.A, k=4, M=ops.M, sigma=0.0, v0=v0)[0])
    assert 128.0 < oracle[2] < 129.0 < 215.0 < oracle[3] < 216.0
    solves = _count_operator_applications(monkeypatch)
    factorised = _count_factorisations(monkeypatch)
    e1, e2 = solve_lowest(ops, 2)
    assert oracle[0] in e1 and oracle[1] in e2
    assert e2.upper < oracle[2]
    assert set(solves) == {0} and len(solves) <= 25
    assert factorised == [ops.halves[0].dim, ops.halves[1].dim]


@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
@pytest.mark.parametrize("n", [32, 64, 128])
def test_floor_certifies_at_the_corner(bc, n):
    # at fl(pi/3) lambda_2 = lambda_3 is double, one mode in each half, the
    # tightest case for the floor: the antisymmetric half still certifies
    # above it, and lambda_2's lower end, the floor, lies below the
    # oracle's lambda_2 by no more than the documented 1e-5 relative
    # (module docstring: 9.1e-6 below the enclosure on CR 128 edge-mean,
    # at most 4.6e-7 on every proof mesh)
    ops = _reference_operators(n, "cr", bc).mapped(triangle_from_angle(EQ))
    e1, e2 = solve_lowest(ops, 2)
    lam1, lam2 = superlu_eigenvalues(ops, 2)
    assert lam1 in e1
    assert e2.lower <= lam2 <= e2.upper
    assert lam2 - e2.lower <= 1e-5 * lam2


@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("theta", [0.3, 0.9, 1.04, EQ], ids=["0.3", "0.9", "1.04", "fl(pi/3)"])
def test_lambda1_matches_the_two_half_solve_bit_for_bit(bc, n, theta):
    # lambda_1 comes from the same symmetric-half run as when both halves
    # were solved, and lambda_2's floor moves its Kato-Temple refinement
    # by far less than an ulp: its enclosure is the same floats
    ops = _reference_operators(n, "cr", bc).mapped(triangle_from_angle(theta))
    e1, e2 = solve_lowest(ops, 2)
    o1, o2 = two_half_solve(ops)
    one, two = verify_enclosure(e1, (e2,)), verify_enclosure(o1, (o2,))
    assert (one.lower, one.upper) == (two.lower, two.upper)
    assert np.array_equal(e1.vector, o1.vector)


@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
def test_further_part_below_the_floor_is_diagnosed(bc):
    # swapped, the solved part is the antisymmetric half, and the
    # symmetric half, which holds lambda_1, lies below the floor
    ops = _reference_operators(32, "cr", bc).mapped(triangle_from_angle(0.9))
    swapped = replace(ops, halves=ops.halves[::-1])
    with pytest.raises(EigensolveError, match="part 1 is not certified above the floor"):
        solve_lowest(swapped, 2)


@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
def test_solve_lowest_back_transforms_only_the_certified_modes(monkeypatch, bc):
    # solve_lowest(ops, 2) computes three modes in the symmetric half, the
    # third a guard, and back-transforms x = U^{-1} y only for the two it
    # certifies; each column is back-transformed on its own, so the two
    # are the same bits as with every mode back-transformed
    ops = _reference_operators(32, "cr", bc).mapped(triangle_from_angle(1.0))
    first = ops.halves[0]
    assert len(ops.halves) == 2
    _, every = eigsolve._lowest_modes(first, 3, ncv=eigsolve.HALF_NCV)
    columns = []
    real_back = eigsolve._BandCholesky.back

    def counted(self, ys):
        columns.append(ys.shape[1])
        return real_back(self, ys)

    monkeypatch.setattr(eigsolve._BandCholesky, "back", counted)
    _, two = eigsolve._lowest_modes(first, 3, ncv=eigsolve.HALF_NCV, vectors=2)
    assert np.array_equal(two, every[:, :2])
    columns.clear()
    solve_lowest(ops, 2)
    assert columns == [2]


@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
@pytest.mark.parametrize("theta", [0.3, 0.9, EQ], ids=["0.3", "0.9", "fl(pi/3)"])
def test_operators_without_spanning_parts_are_refused(monkeypatch, bc, theta):
    # a conforming proof map carries the symmetric half alone, which lacks
    # the antisymmetric modes, and assembled operators carry no part: a
    # solve of either is a usage error, diagnosed before any backend runs
    half = mapped_with_halves(theta, 24, "cg", bc, parts=((0,),))
    assembled = assemble_on_angle(theta, 24, "cg", bc)
    dims = _record_backend_dims(monkeypatch)
    for ops in (half, assembled):
        with pytest.raises(ValueError, match="do not span"):
            solve_lowest(ops, 2)
    with pytest.raises(ValueError, match="no part"):
        ground_rayleigh(assembled, 0.0)
    assert dims == []


# banded Cholesky -------------------------------------------------------------


def proof_operators(theta, n, family, bc):
    """The operators of T(theta) as _reference_operators maps them."""
    return _reference_operators(n, family, bc).mapped(triangle_from_angle(theta))


@pytest.mark.parametrize(
    "family, n, bc",
    [
        ("cr", 16, "dirichlet"),
        ("cr", 32, "dirichlet"),
        ("cg", 28, "dirichlet"),
        ("cg", 40, "dirichlet"),
        ("cr", 32, "edge-mean"),
        ("cg", 32, "edge-mean"),
        ("cg", 64, "edge-mean"),
    ],
    ids=[
        "cr16-halves", "cr32-halves", "cg28-half", "cg40-half",
        "cr32-edge-mean-halves", "cg32-edge-mean-half", "cg64-edge-mean-half",
    ],
)
@pytest.mark.parametrize("theta", [0.3, 1.0, EQ], ids=["0.3", "1.0", "fl(pi/3)"])
def test_banded_solves_contain_the_dense_oracle(theta, family, n, bc):
    # the band order only steers the solver: the CR enclosures and the
    # shifted CG Rayleigh bound are certified on the whole operators, hold
    # the dense oracle, and agree with the solve in the whole part
    proof, whole = proof_operators(theta, n, family, bc), operators(theta, n, family, bc)
    vals = scipy.linalg.eigh(
        proof.A.toarray(), proof.M.toarray(), eigvals_only=True, subset_by_index=[0, 1]
    )
    if family == "cr":
        banded, reference = solve_lowest(proof, 2), solve_lowest(whole, 2)
        for enc, ref, lam in zip(banded, reference, vals):
            assert enc.lower <= lam <= enc.upper
            assert math.isclose(enc.rayleigh, ref.rayleigh, rel_tol=1e-10)
    else:
        below = 0.99 * vals[0]
        banded, reference = ground_rayleigh(proof, below), ground_rayleigh(whole, below)
        assert vals[0] <= banded.rho.hi
        assert math.isclose(banded.rho.hi, reference.rho.hi, rel_tol=1e-10)


@pytest.mark.parametrize(
    "family, n, bc, widths",
    [
        ("cr", 72, "dirichlet", (71, 70)),
        ("cr", 68, "edge-mean", (68, 68)),
        ("cg", 112, "edge-mean", (67,)),
    ],
    ids=["cr72-halves", "cr68-edge-mean-halves", "cg112-edge-mean-half"],
)
@pytest.mark.parametrize("theta", [0.3, EQ], ids=["0.3", "fl(pi/3)"])
def test_wide_banded_solves_agree_with_superlu(theta, family, n, bc, widths):
    # halves wider than every sweep half, as the corner halves are, are
    # banded all the same.  Their spaces (7k to 9k unknowns) are too large
    # for a dense oracle, so the reference is a SuperLU solve of the whole
    # space: each CR enclosure holds its eigenvalue, and so does the
    # certified Rayleigh interval of the shifted CG solve
    proof = proof_operators(theta, n, family, bc)
    assert tuple(h.width for h in proof.halves) == widths
    if family == "cr":
        for enc, lam in zip(solve_lowest(proof, 2), superlu_eigenvalues(proof, 2)):
            assert enc.lower <= lam <= enc.upper
            assert math.isclose(enc.rayleigh, lam, rel_tol=1e-10)
    else:
        (lam1,) = superlu_eigenvalues(proof, 1)
        rho = ground_rayleigh(proof, 0.99 * lam1).rho
        assert rho.lo <= lam1 <= rho.hi
        assert math.isclose(rho.mid, lam1, rel_tol=1e-10)


@pytest.mark.parametrize(
    "family, n, sigma",
    [("cr", 32, 0.0), ("cg", 32, 0.0), ("cg", 32, 61.5), ("cg", 96, 57.25)],
    ids=["cr32", "cg32", "cg32-shifted", "cg96-half-shifted"],
)
def test_band_pack_holds_the_permuted_upper_triangle(family, n, sigma):
    # LAPACK upper band storage: entry (i, j), i <= j, of the matrix, which
    # each half stores permuted into its band order, at [w + i - j, j]; the
    # rest of the array is zero
    ops = _reference_operators(n, family, "dirichlet").mapped(triangle_from_angle(0.9))
    assert len(ops.halves) == (2 if family == "cr" else 1)
    for target in ops.halves:
        w, size = target.width, target.dim
        ab = _band_pack(target, sigma)
        assert ab.shape == (w + 1, size) and ab.flags.f_contiguous
        rows, j = np.nonzero(ab)
        i = rows - w + j
        assert i.min() >= 0  # nothing in the unused corner of the array
        unpacked = scipy.sparse.csr_matrix((ab[rows, j], (i, j)), shape=(size, size))
        shifted = target.A - sigma * target.M if sigma else target.A
        want = scipy.sparse.triu(shifted, format="csr")
        want.eliminate_zeros()
        assert unpacked.nnz == want.nnz
        assert (unpacked != want).nnz == 0
