"""Assembly oracles.

The sharpest checks are closed-form discrete eigenvalues on tiny
equilateral meshes, worked out by hand from the hat-function gradients:

* conforming family, zero trace, n=3: one interior dof, lambda_h = 72;
* nonconforming family, zero trace, n=2: three interior dofs with
  lambda_h = (32, 80, 80).

Everything else is structural: operator identities, constraint
satisfaction after prolongation, affine equivariance of the gram triple,
and agreement of the reference-mapped operators with direct assembly.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EQ, gram_triple, map_derivative_gram, operators, shear
from tricert.fem import assemble, build_space
from tricert.geometry import triangle_from_angle, triangle_from_vertex
from tricert.mesh import uniform_subdivide

families = st.sampled_from(["cg", "cr"])
bcs = st.sampled_from(["dirichlet", "edge-mean"])
space_angles = st.floats(min_value=0.3, max_value=math.pi - 0.5, allow_nan=False)


def space(theta=EQ, n=4, family="cg", bc="dirichlet"):
    return build_space(uniform_subdivide(triangle_from_angle(theta), n), family, bc)


# hand oracles --------------------------------------------------------------


def test_single_interior_node_eigenvalue():
    # n=3 equilateral: K_ii = 2 sqrt(3), M_ii = sqrt(3)/36, ratio 72
    ops = operators(EQ, 3, "cg", "dirichlet")
    assert ops.dim == 1
    k = ops.A.toarray()[0, 0]
    m = ops.M.toarray()[0, 0]
    assert math.isclose(k, 2.0 * math.sqrt(3.0), rel_tol=1e-13)
    assert math.isclose(m, math.sqrt(3.0) / 36.0, rel_tol=1e-13)
    assert math.isclose(k / m, 72.0, rel_tol=1e-13)


def test_central_triangle_nonconforming_spectrum():
    # n=2 equilateral: dofs are the three central edges;
    # K = (1/sqrt 3) [[8,-2,-2],...], M = sqrt(3)/24 I -> spectrum (32, 80, 80)
    ops = operators(EQ, 2, "cr", "dirichlet")
    assert ops.dim == 3
    vals = scipy.linalg.eigh(ops.A.toarray(), ops.M.toarray(), eigvals_only=True)
    assert np.allclose(vals, [32.0, 80.0, 80.0], rtol=1e-12)


# structural identities ------------------------------------------------------


@given(space_angles, st.integers(min_value=3, max_value=8), families, bcs)
def test_stiffness_splits_into_partials(theta, n, family, bc):
    ops = operators(theta, n, family, bc)
    s = ops.A - ops.Kxx - ops.Kyy
    denom = np.abs(ops.A.toarray()).max()
    assert np.abs(s.toarray()).max() <= 1e-13 * denom


@given(space_angles, st.integers(min_value=3, max_value=8), families, bcs)
def test_matrices_symmetric_and_definite(theta, n, family, bc):
    ops = operators(theta, n, family, bc)
    for mat in (ops.A, ops.M, ops.Kxx, ops.Kyy):
        d = mat - mat.T
        assert np.abs(d.toarray()).max() <= 1e-13 * (np.abs(mat.toarray()).max() + 1.0)
    mvals = np.linalg.eigvalsh(ops.M.toarray())
    avals = np.linalg.eigvalsh(ops.A.toarray())
    assert mvals.min() > 0.0
    assert avals.min() > -1e-12 * avals.max()
    # zero-trace and edge-mean spaces exclude constants
    assert avals.min() > 0.0


def test_cross_gram_vanishes_by_symmetry():
    # the single interior hat on the n=3 equilateral mesh is even in x
    # about the axis through its node, so int dx(phi) dy(phi) = 0
    ops = operators(EQ, 3, "cg", "dirichlet")
    assert abs(ops.Kxy.toarray()[0, 0]) < 1e-14


@given(space_angles, st.integers(min_value=3, max_value=7), families, bcs)
def test_gram_triple_sums_to_energy(theta, n, family, bc):
    ops = operators(theta, n, family, bc)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(ops.dim)
    x, _, y = gram_triple(ops, u)
    assert math.isclose(x + y, float(u @ (ops.A @ u)), rel_tol=1e-12)
    assert x >= 0.0 and y >= 0.0


@given(space_angles, st.integers(min_value=2, max_value=8), families, bcs)
def test_mass_lower_bound_is_a_lower_bound(theta, n, family, bc):
    if family == "cg" and bc == "dirichlet" and n < 3:
        return
    ops = operators(theta, n, family, bc)
    mu = ops.mass_min_eig_lower()
    true_min = float(np.linalg.eigvalsh(ops.M.toarray())[0])
    # eigvalsh itself carries ~1e-15 relative noise, so only demand the
    # bound up to that; the exact-arithmetic inequality is what matters
    assert 0.0 < mu <= true_min * (1.0 + 1e-12)


# constraint handling --------------------------------------------------------


def test_zero_trace_dimensions():
    assert space(n=3, family="cg", bc="dirichlet").dof_count == 1
    assert space(n=5, family="cg", bc="dirichlet").dof_count == 6
    assert space(n=2, family="cr", bc="dirichlet").dof_count == 3
    assert space(n=4, family="cr", bc="dirichlet").dof_count == 18


def test_degenerate_spaces_rejected():
    for family, bc, n in (
        ("cg", "dirichlet", 1),
        ("cg", "dirichlet", 2),
        ("cr", "dirichlet", 1),
        ("cg", "edge-mean", 1),
        ("cr", "edge-mean", 1),
    ):
        with pytest.raises(ValueError, match="refine the mesh|needs n >= 2"):
            space(n=n, family=family, bc=bc)


def test_bad_family_and_bc_rejected():
    mesh = uniform_subdivide(triangle_from_angle(EQ), 4)
    with pytest.raises(ValueError):
        build_space(mesh, "p2", "dirichlet")
    with pytest.raises(ValueError):
        build_space(mesh, "cg", "neumann")


@given(space_angles, st.integers(min_value=2, max_value=8), families)
def test_edge_mean_constraints_vanish_after_prolongation(theta, n, family):
    sp_ = space(theta=theta, n=n, family=family, bc="edge-mean")
    rng = np.random.default_rng(n)
    u = sp_.Z @ rng.standard_normal(sp_.dof_count)
    mesh = sp_.mesh
    for side in range(3):
        if family == "cg":
            vals = u[mesh.side_nodes(side)]
            s = 0.5 * vals[0] + vals[1:-1].sum() + 0.5 * vals[-1]
        else:
            s = u[mesh.side_edges(side)].sum()
        assert abs(s) <= 1e-12 * (np.abs(u).max() * (n + 1))


@given(space_angles, st.integers(min_value=3, max_value=8))
def test_zero_trace_prolongation_vanishes_on_boundary(theta, n):
    sp_ = space(theta=theta, n=n, family="cg", bc="dirichlet")
    u = np.zeros(sp_.full_dim)
    u[sp_.free] = 1.0
    assert np.all(u[sp_.mesh.boundary_node_mask()] == 0.0)


# affine equivariance --------------------------------------------------------


@settings(max_examples=20)
@given(
    st.floats(min_value=0.4, max_value=EQ),
    st.floats(min_value=0.4, max_value=EQ),
    families,
    bcs,
)
def test_gram_triple_affine_equivariance(theta, theta_t, family, bc):
    """Mapped-function grams agree with the algebraic transform to 1e-12.

    The subdivision commutes with affine maps, so one coefficient vector
    represents corresponding functions on both meshes.
    """
    n = 6
    src = operators(theta, n, family, bc)
    dst = operators(theta_t, n, family, bc)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(src.dim)

    alpha, beta = shear(theta, theta_t)
    expected = map_derivative_gram(gram_triple(src, u), alpha, beta)
    got = gram_triple(dst, u)
    scale = abs(expected[0]) + abs(expected[2])
    for e, g in zip(expected, got):
        assert abs(e - g) <= 1e-12 * scale

    m_src = float(u @ (src.M @ u))
    m_dst = float(u @ (dst.M @ u))
    assert math.isclose(m_dst, beta * m_src, rel_tol=1e-12)


@pytest.mark.parametrize(
    "tri",
    [triangle_from_angle(t) for t in (0.3, 0.9, EQ)] + [triangle_from_vertex(0.3, 0.8)],
    ids=["theta=0.3", "theta=0.9", "theta=fl(pi/3)", "apex=(0.3,0.8)"],
)
@pytest.mark.parametrize(
    "family, bc",
    [("cg", "dirichlet"), ("cg", "edge-mean"), ("cr", "dirichlet"), ("cr", "edge-mean")],
)
def test_mapped_reference_operators_match_direct_assembly(tri, family, bc):
    n = 9
    direct = assemble(build_space(uniform_subdivide(tri, n), family, bc))
    ref = assemble(build_space(uniform_subdivide(triangle_from_vertex(0.0, 1.0), n), family, bc))
    mapped = ref.mapped(tri)

    for name in ("A", "M", "Kxx", "Kyy"):
        want = getattr(direct, name).toarray()
        got = getattr(mapped, name).toarray()
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name
    u = np.random.default_rng(5).standard_normal(direct.dim)
    scale = float(np.abs(u) @ (abs(direct.Kxy) @ np.abs(u)))
    assert abs(u @ (mapped.Kxy @ u) - u @ (direct.Kxy @ u)) <= 1e-13 * scale

    assert mapped.space.mesh.triangle == tri
    assert mapped.space.mesh.h == direct.space.mesh.h
    assert np.array_equal(mapped.space.mesh.nodes, direct.space.mesh.nodes)
    assert mapped.mass_min_eig_lower() == direct.mass_min_eig_lower()


def test_mapping_needs_reference_operators():
    with pytest.raises(ValueError, match="reference triangle"):
        operators(EQ, 4, "cg", "dirichlet").mapped(triangle_from_angle(0.5))
