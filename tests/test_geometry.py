"""Triangle family and perturbation factors between family members.

Oracles: plane geometry (numpy), the closed-form shear map, factors and
gram transform of ``helpers``, exact eigenvalues of the zero-trace
problem on the equilateral and right isosceles triangles, and the
discrete eigenvalue sandwich (the mapped mesh of a family member is the
affine image of the source mesh, so the factor inequalities must hold
exactly for the computed discrete spectra).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    EQ,
    LAM1_EQ_DIRICHLET,
    LAM1_RIGHT_ISO_DIRICHLET,
    lowest_two,
    map_derivative_gram,
    perturbation_factors,
    shear,
)
from tricert.geometry import (
    TriangleShape,
    perturbation_factor_bounds,
    triangle_from_angle,
    triangle_from_vertex,
)

angles = st.floats(min_value=0.05, max_value=math.pi - 0.05, allow_nan=False)
arc_angles = st.floats(min_value=0.05, max_value=EQ, allow_nan=False)


class TestTriangleShape:
    def test_vertices_and_area(self):
        tri = triangle_from_angle(EQ)
        v = tri.vertices
        assert np.allclose(v[0], [0.0, 0.0])
        assert np.allclose(v[1], [1.0, 0.0])
        assert np.allclose(v[2], [0.5, math.sqrt(3) / 2])
        assert math.isclose(tri.area, math.sqrt(3) / 4, rel_tol=1e-15)

    @given(arc_angles)
    def test_unit_diameter_on_the_arc(self, theta):
        # apex on the unit circle, theta <= pi/3: the base is longest
        assert triangle_from_angle(theta).diameter == 1.0

    @given(st.floats(min_value=EQ + 1e-6, max_value=math.pi - 0.05))
    def test_diameter_grows_past_the_corner(self, theta):
        assert triangle_from_angle(theta).diameter > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TriangleShape(theta=0.0, bx=1.0, by=0.0)
        with pytest.raises(ValueError):
            TriangleShape(theta=math.pi, bx=-1.0, by=0.0)
        with pytest.raises(ValueError):
            triangle_from_vertex(0.5, 0.0)
        with pytest.raises(ValueError):
            triangle_from_vertex(0.5, -1.0)

    @given(angles)
    def test_vertex_roundtrip(self, theta):
        tri = triangle_from_angle(theta)
        again = triangle_from_vertex(tri.bx, tri.by)
        assert math.isclose(again.theta, theta, rel_tol=1e-12)


def _shear_matrix(theta, theta_t):
    alpha, beta = shear(theta, theta_t)
    return np.array([[1.0, alpha], [0.0, beta]])


class TestAffineMap:
    """The shear-scale map Q between family members, the oracle behind
    the gram-transform and equivariance checks."""

    @given(arc_angles, arc_angles)
    def test_maps_family_vertices(self, theta, theta_t):
        q = _shear_matrix(theta, theta_t)
        src = triangle_from_angle(theta).vertices
        dst = triangle_from_angle(theta_t).vertices
        assert np.allclose(src @ q.T, dst, atol=1e-14)

    @given(arc_angles, arc_angles)
    def test_inverse_composes_to_identity(self, theta, theta_t):
        q = _shear_matrix(theta, theta_t)
        inv = _shear_matrix(theta_t, theta)
        pts = np.array([[0.3, 0.2], [0.7, 0.1], [0.5, 0.5]])
        assert np.allclose(pts @ q.T @ inv.T, pts, atol=1e-12)

    def test_identity_map(self):
        alpha, beta = shear(0.8, 0.8)
        assert math.isclose(alpha, 0.0, abs_tol=1e-15)
        assert math.isclose(beta, 1.0, rel_tol=1e-15)

    @given(arc_angles, arc_angles)
    def test_factors_are_the_spectrum_of_the_inverse_gram(self, theta, theta_t):
        q = _shear_matrix(theta, theta_t)
        oracle = np.linalg.eigvalsh(np.linalg.inv(q @ q.T))
        assert np.allclose(perturbation_factors(theta, theta_t), oracle, rtol=1e-10)


class TestDerivativeGramTransform:
    def test_identity_parameters_fix_the_gram(self):
        out = map_derivative_gram((2.0, 0.3, 1.5), alpha=0.0, beta=1.0)
        assert out == (2.0, 0.3, 1.5)

    def test_cauchy_schwarz_guard(self):
        # |C| > sqrt(X Y) is not a gram of anything
        with pytest.raises(ValueError):
            map_derivative_gram((1.0, 5.0, 1.0), alpha=0.1, beta=1.0)

    # grams positive definite with margin, |C| <= (1 - 1e-6) sqrt(X Y): then
    # Y~ >= Y (1 - c_frac^2) / beta >= 6e-8, far above rounding
    @given(
        st.floats(min_value=0.1, max_value=4.0),
        st.floats(min_value=0.1, max_value=4.0),
        st.floats(min_value=-1.0 + 1e-6, max_value=1.0 - 1e-6),
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=0.2, max_value=3.0),
    )
    def test_transform_preserves_cauchy_schwarz(self, x, y, c_frac, alpha, beta):
        c = c_frac * math.sqrt(x * y)
        xt, ct, yt = map_derivative_gram((x, c, y), alpha, beta)
        assert xt > 0.0 and yt > 0.0
        assert ct * ct <= xt * yt * (1.0 + 1e-9)

    def test_singular_gram_maps_to_a_zero_y_gram(self):
        # the boundary c_frac = 1 with alpha = sqrt(Y / X), where u_y = alpha
        # u_x: Y~ = (alpha sqrt(X) - sqrt(Y))^2 / beta is exactly 0
        x = y = c_frac = alpha = beta = 1.0
        c = c_frac * math.sqrt(x * y)
        xt, ct, yt = map_derivative_gram((x, c, y), alpha, beta)
        assert xt > 0.0 and yt == 0.0
        assert ct * ct <= xt * yt * (1.0 + 1e-9)


class TestPerturbationFactors:
    def test_equal_angles_give_unit_factors(self):
        lo, hi = perturbation_factors(0.9, 0.9)
        assert lo == hi == 1.0

    @given(arc_angles, arc_angles)
    def test_ordered_around_one(self, theta, theta_t):
        lo, hi = perturbation_factors(theta, theta_t)
        assert lo <= 1.0 <= hi
        assert lo > 0.0

    @given(arc_angles, arc_angles)
    def test_reciprocity(self, theta, theta_t):
        lo_ab, hi_ab = perturbation_factors(theta, theta_t)
        lo_ba, hi_ba = perturbation_factors(theta_t, theta)
        assert math.isclose(lo_ab * hi_ba, 1.0, rel_tol=1e-12)
        assert math.isclose(hi_ab * lo_ba, 1.0, rel_tol=1e-12)

    def test_exact_eigenvalue_sandwich(self):
        # closed-form zero-trace eigenvalues at pi/3 and pi/2
        for theta, theta_t, lam, lam_t in (
            (EQ, math.pi / 2, LAM1_EQ_DIRICHLET, LAM1_RIGHT_ISO_DIRICHLET),
            (math.pi / 2, EQ, LAM1_RIGHT_ISO_DIRICHLET, LAM1_EQ_DIRICHLET),
        ):
            lo, hi = perturbation_factors(theta, theta_t)
            assert lo * lam <= lam_t <= hi * lam

    @settings(max_examples=15)
    @given(
        st.floats(min_value=0.35, max_value=EQ),
        st.floats(min_value=0.35, max_value=EQ),
        st.sampled_from(["dirichlet", "edge-mean"]),
        st.sampled_from(["cg", "cr"]),
    )
    def test_discrete_eigenvalue_sandwich(self, theta, theta_t, bc, family):
        # the discrete spectra of affinely related meshes must obey the
        # same factor inequalities, mode by mode
        n = 6
        lo, hi = perturbation_factors(theta, theta_t)
        src = lowest_two(theta, n, family, bc)
        dst = lowest_two(theta_t, n, family, bc)
        for s, d in zip(src, dst):
            assert lo * s.rayleigh <= d.rayleigh * (1.0 + 1e-12)
            assert d.rayleigh <= hi * s.rayleigh * (1.0 + 1e-12)


class TestPerturbationFactorBounds:
    @given(
        st.floats(min_value=0.3, max_value=EQ),
        st.floats(min_value=0.1, max_value=EQ),
        st.floats(min_value=0.0, max_value=0.4),
    )
    def test_encloses_pointwise_factors(self, theta, t_lo, width):
        t_hi = min(t_lo + width, EQ)
        flo, fhi = perturbation_factor_bounds(theta, t_lo, t_hi)
        for k in range(17):
            t = t_lo + (t_hi - t_lo) * k / 16
            lo_t, hi_t = perturbation_factors(theta, t)
            assert flo <= lo_t * (1.0 + 1e-14)
            assert fhi >= hi_t * (1.0 - 1e-14)

    def test_interval_reaching_zero_angle(self):
        flo, fhi = perturbation_factor_bounds(0.5, 0.0, 0.5)
        assert 0.0 < flo < 1.0
        assert fhi == math.inf

    def test_degenerate_interval(self):
        flo, fhi = perturbation_factor_bounds(0.7, 0.7, 0.7)
        assert flo <= 1.0 <= fhi
        assert fhi - flo < 1e-12

    def test_rejects_backwards_interval(self):
        with pytest.raises(ValueError):
            perturbation_factor_bounds(0.5, 0.6, 0.4)
