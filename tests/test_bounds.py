"""Certified scalar formulas: brackets, eta, F, Err.

Bracket honesty is tested against closed-form eigenvalues (equilateral
and right isosceles zero-trace problems) at several mesh sizes; the
scalar formulas against exact rational arithmetic and dense sampling.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    EQ,
    LAM1_EQ_DIRICHLET,
    LAM1_RIGHT_ISO_DIRICHLET,
    gram_triple,
    ground_rho,
    lowest_two,
    operators,
)
from tricert.bounds import (
    LEMMA_CONST,
    BracketError,
    DerivativePoint,
    EigBracket,
    F_interval,
    F_of,
    bracket,
    err_bound,
    eta,
    eta_range,
)
from tricert.eigsolve import EigenEnclosure, solve_lowest
from tricert.rounding import Interval, cot_interval


def _enc(k, value):
    return EigenEnclosure(
        k=k, lower=value, upper=value, rho=Interval(value), residual_bound=0.0,
        vector=np.zeros(1),
    )


class TestBracket:
    def test_formula_against_rational_arithmetic(self):
        lam = 27.94
        h = 1.0 / 64.0
        out = bracket([_enc(1, lam)], Interval(28.0), h)
        assert len(out) == 1
        lower = out[0].lower
        ch = Fraction(LEMMA_CONST) * Fraction(h)
        exact = Fraction(lam) / (1 + ch * ch * Fraction(lam))
        assert abs(lower - float(exact)) <= 1e-10
        assert lower <= float(exact)  # outward
        assert abs(lower - 27.9332) <= 1e-4
        assert 28.0 <= out[0].upper <= 28.0 * (1.0 + 1e-14)

    def test_inconsistent_bracket_raises(self):
        with pytest.raises(BracketError):
            bracket([_enc(1, 60.0)], Interval(52.0), 1.0 / 64.0)

    def test_eigbracket_validation(self):
        with pytest.raises(ValueError):
            EigBracket(k=1, lower=2.0, upper=1.0)
        with pytest.raises(ValueError):
            EigBracket(k=1, lower=-1.0, upper=1.0)
        b = EigBracket(k=1, lower=1.0, upper=2.0)
        assert 1.5 in b and 2.5 not in b
        assert b.width == 1.0

    @pytest.mark.parametrize("n_cr,n_cg", [(4, 4), (8, 8), (16, 12), (24, 16)])
    def test_equilateral_oracle_inside_every_bracket(self, n_cr, n_cg):
        cr = list(lowest_two(EQ, n_cr, "cr", "dirichlet"))
        rho = ground_rho(EQ, n_cg, "cg", "dirichlet")
        h = 1.0 / n_cr
        out = bracket(cr, rho, h)
        assert LAM1_EQ_DIRICHLET in out[0]

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_right_isosceles_oracle_inside_bracket(self, n):
        theta = math.pi / 2  # legs 1, diameter sqrt(2)
        cr = list(lowest_two(theta, n, "cr", "dirichlet"))
        rho = ground_rho(theta, n, "cg", "dirichlet")
        h = math.sqrt(2.0) / n
        out = bracket(cr, rho, h)
        assert LAM1_RIGHT_ISO_DIRICHLET in out[0]

    def test_second_mode_bracketed_too(self):
        # only the lower end of lambda_2 is certified; the conforming side
        # bounds lambda_1 alone
        cr = list(lowest_two(EQ, 16, "cr", "dirichlet"))
        rho = ground_rho(EQ, 16, "cg", "dirichlet")
        out = bracket(cr, rho, 1.0 / 16.0)
        lam2 = 112.0 * math.pi**2 / 9.0
        assert out[1].k == 2
        assert out[1].lower <= lam2
        assert out[1].upper == math.inf
        assert out[1].lower > out[0].upper  # the two modes are separated

    def test_upper_end_is_the_rayleigh_bound(self):
        rho = Interval(52.5, 52.75)
        (out,) = bracket([_enc(1, 52.0)], rho, 1.0 / 64.0)
        assert 52.75 < out.upper <= 52.75 * (1.0 + 1e-14)


class TestEta:
    def test_trivial_equal_endpoints(self):
        assert eta(52.0, 52.0, 121.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eta(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            eta(2.0, 1.0, 3.0)
        with pytest.raises(ValueError):
            eta(1.0, 2.0, 2.0)

    def test_hand_value(self):
        # a=3, b=4, c=7: eta^2 = 7 - 6 sqrt(3)/2 = 7 - 3 sqrt(3)
        want = math.sqrt(7.0 - 3.0 * math.sqrt(3.0))
        got = eta(3.0, 4.0, 7.0)
        assert math.isclose(got, want, rel_tol=1e-14)
        assert got >= want  # outward

    @given(
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.2, max_value=30.0),
    )
    def test_monotone_in_b_and_c(self, a, db, db2, dc):
        b1 = a + db
        b2 = b1 + db2
        c = b2 + dc
        up_b = eta(a, b2, c)
        assert up_b >= eta(a, b1, c) - 1e-12
        assert eta(a, b1, c + 1.0) <= eta(a, b1, c) + 1e-12
        assert up_b >= 0.0


BOXES = {
    "wide-gap": ((52.0, 55.0), (52.0, 55.0), (121.0, 123.0)),
    "mid-gap": ((27.0, 29.0), (27.0, 29.0), (43.0, 47.0)),
}


class TestEtaRange:
    def test_degenerate_box_equals_point_eta(self):
        assert eta_range((4.0, 4.0), (5.0, 5.0), (9.0, 9.0)) == eta(4.0, 5.0, 9.0)

    @pytest.mark.parametrize("name", sorted(BOXES))
    def test_dominates_dense_sampling(self, name):
        (a0, a1), (b0, b1), (c0, c1) = BOXES[name]
        bound = eta_range((a0, a1), (b0, b1), (c0, c1))
        worst = 0.0
        for a in np.linspace(a0, a1, 13):
            for b in np.linspace(b0, b1, 13):
                for c in np.linspace(c0, c1, 13):
                    if a <= b < c:
                        worst = max(worst, eta(float(a), float(b), float(c)))
        assert bound >= worst

    def test_fallback_branch_still_dominates(self):
        # b_hi close to c_lo defeats the corner monotonicity test,
        # forcing the scanned bound
        box = ((1.0, 1.2), (1.8, 1.95), (2.0, 2.1))
        bound = eta_range(*box)
        worst = max(
            eta(float(a), float(b), 2.0)
            for a in np.linspace(1.0, 1.2, 9)
            for b in np.linspace(1.8, 1.95, 9)
            if a <= b
        )
        assert bound >= worst

    def test_bad_corner_rejected(self):
        with pytest.raises(ValueError):
            eta_range((1.0, 1.0), (3.0, 3.0), (2.0, 2.5))  # b_hi >= c_lo


class TestF:
    def test_pure_x_gradient_gives_zero(self):
        assert F_of((5.0, 0.0, 0.0), 1.0) == 0.0

    @given(
        st.floats(min_value=0.1, max_value=40.0),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=0.1, max_value=40.0),
        st.floats(min_value=0.2, max_value=math.pi - 0.2),
        st.floats(min_value=1e-3, max_value=1e3),
        st.sampled_from([0.25, 0.5, 2.0, 64.0, 1024.0]),
    )
    def test_sign_and_scale_invariance(self, x, c, y, theta, s, p2):
        base = F_of((x, c, y), theta)
        # power-of-two scaling commutes with rounding: exact equality
        assert F_of((p2 * x, p2 * c, p2 * y), theta, mass=p2) == base
        got = F_of((s * x, s * c, s * y), theta, mass=s)
        assert math.isclose(got, base, rel_tol=1e-12, abs_tol=1e-12)
        # sign flip of the function leaves the gram quadratics unchanged
        assert F_of((x, c, y), theta, mass=1.0) == base

    def test_hand_formula(self):
        x, c, y, theta, m = 2.0, 0.5, 3.0, 0.7, 1.7
        want = (-2.0 / math.tan(theta) * y + 2.0 * c) / m
        assert math.isclose(F_of((x, c, y), theta, mass=m), want, rel_tol=1e-14)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            F_of((1.0, 0.0, 1.0), 1.0, mass=0.0)

    def test_interval_version_contains_point_value(self):
        theta = 1.0
        val = F_of((2.0, 0.5, 3.0), theta, mass=1.7)
        iv = F_interval(
            Interval(0.5), Interval(3.0), cot_interval(Interval(theta)), Interval(1.7)
        )
        assert val in iv
        assert iv.width < 1e-12


class TestErr:
    def test_zero_eta_gives_zero(self):
        # outward rounding may leave a few denormal ulps above exact zero
        assert 0.0 <= err_bound(52.0, 52.0, 121.0, EQ) <= 1e-300

    def test_hand_formula(self):
        a, b, c, theta = 50.0, 52.0, 120.0, 0.9
        e = eta(a, b, c)
        want = 2.0 * math.sqrt(b) * (2.0 / math.tan(theta) + math.sqrt(2.0)) * e
        got = err_bound(a, b, c, theta)
        assert got >= want * (1.0 - 1e-13)
        assert math.isclose(got, want, rel_tol=1e-10)

    def test_interval_theta_uses_worst_cotangent(self):
        a, b, c = 50.0, 52.0, 120.0
        lo = err_bound(a, b, c, (0.9, 1.1))
        assert lo >= err_bound(a, b, c, 1.1) * (1.0 - 1e-13)
        assert lo >= err_bound(a, b, c, 0.9) * (1.0 - 1e-13)

    def test_supplied_eta_respected(self):
        got = err_bound(50.0, 52.0, 120.0, 0.9, eta_value=0.25)
        want = 2.0 * math.sqrt(52.0) * (2.0 / math.tan(0.9) + math.sqrt(2.0)) * 0.25
        assert math.isclose(got, want, rel_tol=1e-10)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
    def test_finite_difference_matches_f(self, bc):
        # discrete eigenvalue along the family vs the derivative
        # functional of the discrete eigenvector; exact modulo O(dt^2)
        theta = EQ - 0.05
        dt = 1e-4
        n = 24
        lam = {
            s: lowest_two(theta + s * dt / 2, n, "cg", bc)[0].rayleigh
            for s in (-1, 1)
        }
        fd = (lam[1] - lam[-1]) / dt

        ops = operators(theta, n, "cg", bc)
        (enc,) = solve_lowest(ops, 1)
        u = enc.vector
        f = F_of(gram_triple(ops, u), theta, mass=float(u @ (ops.M @ u)))
        assert abs(fd - f) <= 1e-2 * abs(f)


def test_dataclass_invariants():
    pt = DerivativePoint(
        theta=EQ, gram_xx=26.3, gram_xy=0.0, gram_yy=26.3,
        f_value=-30.4, err=11.8,
    )
    assert pt.err >= 0.0
