"""Assembly oracles.

The sharpest checks are closed-form discrete eigenvalues on tiny
equilateral meshes, worked out by hand from the hat-function gradients:

* conforming family, zero trace, n=3: one interior dof, lambda_h = 72;
* nonconforming family, zero trace, n=2: three interior dofs with
  lambda_h = (32, 80, 80).

Everything else is structural: operator identities, constraint
satisfaction after prolongation, affine equivariance of the gram triple,
agreement of the pencil mapped from the reference operators with direct
assembly, and the split of each space into its two mirror-parity halves,
which the stored float pencil obeys exactly.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    EQ,
    assemble_on_angle,
    eliminate_by_loops,
    gram_triple,
    map_derivative_gram,
    operators,
    s2,
    shear,
    side_differences_by_loops,
)
from tricert.certify import _BC, _reference_operators, paper_config, quick_config
from tricert import fem
from tricert.fem import (
    BandOrder,
    ReferenceMap,
    assemble,
    build_space,
    invariant_basis,
    mirror,
    parity_bases,
)
from tricert.eigsolve import rayleigh_bound
from tricert.geometry import TriangleShape, triangle_from_angle, triangle_from_vertex
from tricert.mesh import uniform_subdivide

families = st.sampled_from(["cg", "cr"])
bcs = st.sampled_from(["dirichlet", "edge-mean"])
space_angles = st.floats(min_value=0.3, max_value=math.pi - 0.5, allow_nan=False)


def space(theta=EQ, n=4, family="cg", bc="dirichlet"):
    return build_space(uniform_subdivide(triangle_from_angle(theta), n), family, bc)


# hand oracles --------------------------------------------------------------


def test_single_interior_node_eigenvalue():
    # n=3 equilateral: K_ii = 2 sqrt(3), M_ii = sqrt(3)/36, ratio 72; the
    # pencil on T_ref holds s K_ii = 3 and M_ii / s = 1/18, s = sqrt(3)/2
    ops = operators(EQ, 3, "cg", "dirichlet")
    assert ops.dim == 1
    k = ops.A.toarray()[0, 0]
    m = ops.M.toarray()[0, 0]
    assert math.isclose(k, 3.0, rel_tol=1e-13)
    assert math.isclose(m, 1.0 / 18.0, rel_tol=1e-13)
    assert math.isclose(k / m / s2(EQ), 72.0, rel_tol=1e-13)
    direct = assemble_on_angle(EQ, 3, "cg", "dirichlet")
    assert math.isclose(direct.A.toarray()[0, 0], 2.0 * math.sqrt(3.0), rel_tol=1e-13)
    assert math.isclose(direct.M.toarray()[0, 0], math.sqrt(3.0) / 36.0, rel_tol=1e-13)


def test_central_triangle_nonconforming_spectrum():
    # n=2 equilateral: dofs are the three central edges;
    # K = (1/sqrt 3) [[8,-2,-2],...], M = sqrt(3)/24 I -> spectrum (32, 80, 80),
    # which the pencil holds times s^2 = 3/4
    ops = operators(EQ, 2, "cr", "dirichlet")
    assert ops.dim == 3
    vals = scipy.linalg.eigh(ops.A.toarray(), ops.M.toarray(), eigvals_only=True)
    assert np.allclose(vals / s2(EQ), [32.0, 80.0, 80.0], rtol=1e-12)


# structural identities ------------------------------------------------------


@given(space_angles, st.integers(min_value=3, max_value=8), families, bcs)
def test_stiffness_splits_into_partials(theta, n, family, bc):
    ops = assemble_on_angle(theta, n, family, bc)
    s = ops.A - ops.Kxx - ops.Kyy
    denom = np.abs(ops.A.toarray()).max()
    assert np.abs(s.toarray()).max() <= 1e-13 * denom


@given(space_angles, st.integers(min_value=3, max_value=8), families, bcs)
def test_matrices_symmetric_and_definite(theta, n, family, bc):
    # the pencil on T_ref and the operators assembled on T(theta) alike
    ops, direct = operators(theta, n, family, bc), assemble_on_angle(theta, n, family, bc)
    for mat in (ops.A, ops.M, direct.A, direct.M, direct.Kxx, direct.Kyy):
        d = mat - mat.T
        assert np.abs(d.toarray()).max() <= 1e-13 * (np.abs(mat.toarray()).max() + 1.0)
    for K in (ops, direct):
        mvals = np.linalg.eigvalsh(K.M.toarray())
        avals = np.linalg.eigvalsh(K.A.toarray())
        assert mvals.min() > 0.0
        assert avals.min() > -1e-12 * avals.max()
        # zero-trace and edge-mean spaces exclude constants
        assert avals.min() > 0.0


def test_cross_gram_vanishes_by_symmetry():
    # the single interior hat on the n=3 equilateral mesh is even in x
    # about the axis through its node, so int dx(phi) dy(phi) = 0
    ops = assemble_on_angle(EQ, 3, "cg", "dirichlet")
    assert abs(ops.Kxy.toarray()[0, 0]) < 1e-14


@given(space_angles, st.integers(min_value=3, max_value=7), families, bcs)
def test_gram_triple_sums_to_energy(theta, n, family, bc):
    ops = assemble_on_angle(theta, n, family, bc)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(ops.dim)
    x, _, y = gram_triple(ops, u)
    assert math.isclose(x + y, float(u @ (ops.A @ u)), rel_tol=1e-12)
    assert x >= 0.0 and y >= 0.0


@given(space_angles, st.integers(min_value=2, max_value=8), families, bcs)
def test_mass_lower_bound_is_a_lower_bound(theta, n, family, bc):
    if family == "cg" and bc == "dirichlet" and n < 3:
        return
    # the pencil's M is the reference one, whose bound is fixed per mesh
    for ops in (operators(theta, n, family, bc), assemble_on_angle(theta, n, family, bc)):
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
    src = assemble_on_angle(theta, n, family, bc)
    dst = assemble_on_angle(theta_t, n, family, bc)
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
    # the pencil (K0 - c S + kappa Kxx, M_ref) on T_ref is s A and M / s of
    # the operators assembled on the triangle, s its height: on T(theta)
    # to rounding, as T_c and T(theta) agree to rounding
    n = 9
    direct = assemble(build_space(uniform_subdivide(tri, n), family, bc))
    ref = assemble(build_space(uniform_subdivide(triangle_from_vertex(0.0, 1.0), n), family, bc))
    mapped = ReferenceMap.of(ref).mapped(tri)
    assert (mapped.Kxx, mapped.Kxy, mapped.Kyy) == (None, None, None)
    s = tri.by
    for got, want in ((mapped.A, s * direct.A), (mapped.M, direct.M / s)):
        want = want.toarray()
        assert np.abs(got.toarray() - want).max() <= 1e-13 * np.abs(want).max()
    # the pencil lives on the reference space, and its M is the reference M
    assert mapped.space is ref.space and mapped.M is ref.M
    assert mapped.mass_min_eig_lower() == ref.mass_min_eig_lower()


@pytest.mark.parametrize(
    "tri",
    [triangle_from_angle(t) for t in (0.05, 0.3, 0.9, EQ, 2.0)] + [triangle_from_vertex(0.3, 0.8)],
    ids=["theta=0.05", "theta=0.3", "theta=0.9", "theta=fl(pi/3)", "theta=2.0", "apex=(0.3,0.8)"],
)
@pytest.mark.parametrize("n", [6, 9])
@pytest.mark.parametrize(
    "family, bc",
    [("cg", "dirichlet"), ("cg", "edge-mean"), ("cr", "dirichlet"), ("cr", "edge-mean")],
)
def test_reference_forms_hold_the_forms_of_direct_assembly(tri, n, family, bc):
    # rayleigh_bound certifies the Rayleigh quotient, mass form and gram
    # forms of a triangle from the forms of its vector with the reference
    # K0, S, Kxx and M, by the identities s Kxx_ref, Kxy_ref - c Kxx_ref
    # and (s A - s^2 Kxx_ref) / s.  Each must hold the form of the same
    # vector with the operators assembled on the triangle itself, to the
    # rounding of that assembly; a random vector gives Kxy a form of its
    # own size, so a wrong sign or factor of c shows
    ref = reference_map(n, family, bc)
    direct = assemble(build_space(uniform_subdivide(tri, n), family, bc))
    u = np.random.default_rng(n).standard_normal(ref.dim)
    bound = rayleigh_bound(ref, tri.shear, u)
    v = bound.vector
    xx, xy, yy = gram_triple(direct, v)
    mass = float(v @ (direct.M @ v))
    scale = xx + yy
    tol = 1e-12 * scale
    for got, want in zip(bound.grams, (xx, xy, yy)):
        assert got.lo - tol <= want <= got.hi + tol
        assert got.width <= 1e-12 * scale
    assert bound.mass_form.lo - 1e-12 * mass <= mass <= bound.mass_form.hi + 1e-12 * mass
    rho = float(v @ (direct.A @ v)) / mass
    assert bound.rho.lo - 1e-12 * rho <= rho <= bound.rho.hi + 1e-12 * rho


@pytest.mark.parametrize(
    "family, bc",
    [("cg", "dirichlet"), ("cg", "edge-mean"), ("cr", "dirichlet"), ("cr", "edge-mean")],
)
def test_mapped_operators_equal_the_sparse_algebra_bit_for_bit(family, bc):
    # mapped evaluates the pencil entrywise on a pattern fixed per
    # reference space; its sparse-matrix form is the reference, and every
    # stored index and value must be the same
    ref = assemble(build_space(uniform_subdivide(triangle_from_vertex(0.0, 1.0), 12), family, bc))
    K0, S = ref.Kxx + ref.Kyy, ref.Kxy + ref.Kxy.T
    mapping = ReferenceMap.of(ref)
    tris = [triangle_from_angle(t) for t in (0.05, 0.5, 1.0, EQ, math.pi / 2, 2.0)]
    for tri in tris + [triangle_from_vertex(0.0, 1.0), triangle_from_vertex(-0.4, 0.5)]:
        shear = tri.shear
        want = (K0 - shear.c * S).tocsr()
        if tri.on_circle:
            assert shear.kappa.lo == shear.kappa.hi == 0.0
        else:
            want = (want + shear.kappa.mid * ref.Kxx).tocsr()
        got = mapping.mapped(tri).A
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


@settings(max_examples=10)
@given(space_angles, st.integers(min_value=3, max_value=6), families, bcs)
def test_assembly_stores_no_zero_entries(theta, n, family, bc):
    # a stored zero costs every product and widens the running-error
    # bounds, which count the stored entries of a row
    ops = assemble(space(theta, n, family, bc))
    for name in ("A", "M", "Kxx", "Kxy", "Kyy"):
        assert np.all(getattr(ops, name).data != 0.0), name
    if family == "cr" and bc == "dirichlet":
        assert ops.M.nnz == ops.dim  # the CR mass matrix is diagonal


def test_mapping_needs_reference_operators():
    with pytest.raises(ValueError, match="reference triangle"):
        ReferenceMap.of(assemble_on_angle(EQ, 4, "cg", "dirichlet"))


# mirror-parity halves --------------------------------------------------------

PAIRS = [("cg", "dirichlet"), ("cg", "edge-mean"), ("cr", "dirichlet"), ("cr", "edge-mean")]


def reference_map(n, family, bc):
    return ReferenceMap.of(
        assemble(build_space(uniform_subdivide(triangle_from_vertex(0.0, 1.0), n), family, bc))
    )


def side_means(sp_, w):
    """The three side-mean constraint values of the full-dof vector w."""
    mesh = sp_.mesh
    if sp_.family == "cg":
        sides = [w[mesh.side_nodes(s)] for s in range(3)]
        return [0.5 * v[0] + v[1:-1].sum() + 0.5 * v[-1] for v in sides]
    return [w[mesh.side_edges(s)].sum() for s in range(3)]


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("family, bc", PAIRS)
def test_parity_bases_split_the_space(family, bc, n):
    sp_ = space(EQ, n, family, bc)
    p = mirror(sp_)
    assert np.array_equal(np.sort(p), np.arange(sp_.full_dim))
    assert np.array_equal(p[p], np.arange(sp_.full_dim))  # an involution
    c_plus, c_minus = parity_bases(sp_)
    assert c_plus.shape[1] + c_minus.shape[1] == sp_.dof_count
    for C, sign in ((c_plus, 1.0), (c_minus, -1.0)):
        assert C.shape[0] == sp_.dof_count
        lifted = sp_.Z @ C.toarray() if bc == "edge-mean" else None
        for k in range(C.shape[1]):
            if lifted is None:
                w = np.zeros(sp_.full_dim)
                w[sp_.free] = C[:, k].toarray().ravel()
            else:
                w = lifted[:, k]
                scale = np.abs(w).sum()
                assert all(abs(m) <= 1e-14 * scale for m in side_means(sp_, w))
            assert np.array_equal(w[p], sign * w)  # each column has its parity
    # together the columns span the space
    assert np.linalg.matrix_rank(np.hstack([c_plus.toarray(), c_minus.toarray()])) == sp_.dof_count


def side_mean_matrix(sp_):
    """The three side-mean constraints of :func:`side_means` as rows on
    the full dofs."""
    mesh = sp_.mesh
    rows = []
    for s in range(3):
        dofs = mesh.side_nodes(s) if sp_.family == "cg" else mesh.side_edges(s)
        w = np.ones(dofs.size)
        if sp_.family == "cg":
            w[0] = w[-1] = 0.5
        rows.append(np.bincount(dofs, weights=w, minlength=sp_.full_dim))
    return scipy.sparse.csr_matrix(np.vstack(rows))


# every edge-mean mesh size of the quick and paper-config proofs
EDGE_MEAN_MESHES = sorted({
    (n, family)
    for config in (quick_config("cr-constant"), paper_config("cr-constant"))
    for n, family in ((config.cg_n, "cg"), (config.eq_cg_n, "cg"),
                      (config.cr_n, "cr"), (config.eq_cr_n, "cr"))
})


@pytest.mark.parametrize("n, family", EDGE_MEAN_MESHES)
def test_edge_mean_halves_meet_every_side_mean_exactly(n, family):
    # each column is a local side difference, or a compensated corner
    # orbit, with weights of small integers and halves, so its lift meets
    # all three side means with no rounding at all
    sp_ = build_space(uniform_subdivide(triangle_from_vertex(0.0, 1.0), n), family, "edge-mean")
    W = side_mean_matrix(sp_)
    for C in parity_bases(sp_):
        assert np.all((W @ (sp_.Z @ C)).toarray() == 0.0)


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("n, family", [(2, "cg"), (3, "cr")] + EDGE_MEAN_MESHES)
def test_edge_mean_bases_match_the_loop_oracles(n, family, monkeypatch):
    # the slave basis Z and the half bases, built in index arithmetic, are
    # the coordinate-by-coordinate constructions to the last bit
    sp_ = build_space(uniform_subdivide(triangle_from_vertex(0.0, 1.0), n), family, "edge-mean")
    constraints = fem._edge_mean_constraints(sp_.mesh, family)
    assert_same_csr(sp_.Z, eliminate_by_loops(constraints, sp_.full_dim))
    bases = parity_bases(sp_)
    monkeypatch.setattr(fem, "_side_differences", side_differences_by_loops)
    for got, want in zip(bases, parity_bases(sp_)):
        assert_same_csr(got, want)


@pytest.mark.parametrize("n", [2, 3, 16, 32])
def test_edge_mean_cr_halves_together_span_the_space(n):
    sp_ = build_space(uniform_subdivide(triangle_from_vertex(0.0, 1.0), n), "cr", "edge-mean")
    lifted = sp_.Z @ scipy.sparse.hstack(parity_bases(sp_))
    assert np.linalg.matrix_rank(lifted.toarray()) == sp_.dof_count


def lifted(sp_, C):
    """The columns of C, in the reduced coordinates of ``sp_``, as
    full-dof vectors."""
    if sp_.Z is not None:
        return (sp_.Z @ C).toarray()
    full = np.zeros((sp_.full_dim, C.shape[1]))
    full[sp_.free] = C.toarray()
    return full


def symmetry_group(sp_):
    """The six full-dof permutations of the symmetry group of the
    equilateral triangle, generated by the mirror and the rotation."""
    p, r = mirror(sp_), fem.rotation(sp_)
    return [np.arange(sp_.full_dim), r, r[r], p, p[r], p[r[r]]]


# every space of n = 2 to 9 (a CG Dirichlet space needs n >= 3)
SMALL_SPACES = [
    (family, bc, n) for n in range(2, 10) for family, bc in PAIRS
    if (family, bc, n) != ("cg", "dirichlet", 2)
]


@pytest.mark.parametrize("family, bc, n", SMALL_SPACES)
def test_invariant_columns_are_fixed_by_mirror_and_rotation(family, bc, n):
    sp_ = space(EQ, n, family, bc)
    r = fem.rotation(sp_)
    assert np.array_equal(np.sort(r), np.arange(sp_.full_dim))
    assert np.array_equal(r[r[r]], np.arange(sp_.full_dim))  # of order three
    assert not np.array_equal(r, np.arange(sp_.full_dim))
    w = lifted(sp_, invariant_basis(sp_))
    assert w.shape[1] > 0 and np.all(np.abs(w).sum(axis=0) > 0.0)
    for perm in (mirror(sp_), r):
        assert np.array_equal(w[perm], w)


@pytest.mark.parametrize("n, family", EDGE_MEAN_MESHES)
def test_edge_mean_invariant_part_meets_every_side_mean_exactly(n, family):
    # on invariant vectors the three side means are one, that of side 0,
    # which the columns meet by local differences; all three then hold
    # with no rounding at all
    sp_ = build_space(uniform_subdivide(triangle_from_vertex(0.0, 1.0), n), family, "edge-mean")
    assert np.all((side_mean_matrix(sp_) @ (sp_.Z @ invariant_basis(sp_))).toarray() == 0.0)


@pytest.mark.parametrize("family, bc, n", SMALL_SPACES)
def test_invariant_columns_span_the_invariant_subspace(family, bc, n):
    # the dense group projector P = (1/6) sum_g g maps the space onto its
    # invariant subspace, whose dimension is therefore the rank of P on a
    # basis of the space
    sp_ = build_space(uniform_subdivide(triangle_from_vertex(0.0, 1.0), n), family, bc)
    P = np.zeros((sp_.full_dim, sp_.full_dim))
    for g in symmetry_group(sp_):
        P[g, np.arange(sp_.full_dim)] += 1.0 / 6.0
    basis = lifted(sp_, scipy.sparse.identity(sp_.dof_count, format="csr"))
    C = invariant_basis(sp_)
    assert C.shape[1] == np.linalg.matrix_rank(P @ basis)
    assert np.linalg.matrix_rank(C.toarray()) == C.shape[1]


def test_invariant_part_needs_an_equilateral_apex():
    # the rotation maps T(pi/3) alone onto itself, as the mirror maps only
    # a T(theta), apex on the unit circle
    ref = reference_map(6, "cg", "dirichlet").with_halves(((fem.INVARIANT,),))
    for tri in (triangle_from_angle(1.0), triangle_from_angle(0.9)):
        with pytest.raises(ValueError, match="not equilateral"):
            ref.mapped(tri)
    with pytest.raises(ValueError, match="unit circle"):
        ref.mapped(triangle_from_vertex(0.5, 0.8))
    (part,) = ref.mapped(triangle_from_angle(EQ)).halves
    assert part.dim == invariant_basis(ref.space).shape[1]


@pytest.mark.parametrize("theta", [0.3, 0.9], ids=["0.3", "0.9"])
@pytest.mark.parametrize("n, family", EDGE_MEAN_MESHES)
def test_edge_mean_halves_hold_no_cancellation_residue(n, family, theta):
    # the half grams are congruences of the full grams, whose entries are
    # rounded apart where they are equal in exact arithmetic; what vanishes
    # in exact arithmetic must not be stored as residue of a few ulps.  (At
    # fl(pi/3) some entries of a half's A vanish by the symmetry of the
    # equilateral triangle, on any basis, so that angle is left out.)
    parts = ((0,), (1,)) if family == "cr" else ((0,),)
    ops = reference_map(n, family, "edge-mean").with_halves(parts).mapped(
        triangle_from_angle(theta)
    )
    for h in ops.halves:
        for K in (h.A, h.M):
            assert np.all(np.abs(K.data) >= 1e-12 * np.abs(K.data).max())


@pytest.mark.parametrize(
    "tri",
    [triangle_from_angle(t) for t in (0.3, 0.9, EQ)]
    + [triangle_from_vertex(0.37, 0.71), triangle_from_vertex(0.5, 0.5)],
    ids=["0.3", "0.9", "fl(pi/3)", "apex=(0.37,0.71)", "apex=(0.5,0.5)"],
)
@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("family, bc", PAIRS)
def test_half_spectra_unite_to_the_whole_spectrum(family, bc, n, tri):
    # on T(theta) the two halves, and on a triangle with no mirror the
    # whole part, spanned by both parity bases: either way the parts'
    # spectra unite to that of the space assembled on the triangle itself
    parts = ((0,), (1,)) if tri.on_circle else ((0, 1),)
    ops = reference_map(n, family, bc).with_halves(parts).mapped(tri)
    whole = assemble(build_space(uniform_subdivide(tri, n), family, bc))
    # the pencil's eigenvalues are those of the triangle times s^2
    want = tri.by**2 * scipy.linalg.eigh(whole.A.toarray(), whole.M.toarray(), eigvals_only=True)
    got = np.sort(np.concatenate([
        scipy.linalg.eigh(h.A.toarray(), h.M.toarray(), eigvals_only=True) for h in ops.halves
    ]))
    assert np.all(np.abs(got - want) <= 1e-10 * want)
    for h in ops.halves:
        # each part is the congruence of the whole pencil by its basis
        for name in ("A", "M"):
            full = getattr(ops, name)
            direct = (h.C.T @ full @ h.C).toarray()
            assert np.abs(getattr(h, name).toarray() - direct).max() <= 1e-13 * abs(full).max()


def test_halves_need_the_apex_on_the_unit_circle():
    # a half splits the pencil of T(theta) alone; the whole part, which
    # leaves out no parity, maps to any apex
    tri = triangle_from_vertex(0.3, 0.8)
    for parts in (((0,),), ((0,), (1,))):
        with pytest.raises(ValueError, match="unit circle"):
            reference_map(6, "cr", "dirichlet").with_halves(parts).mapped(tri)
    ops = reference_map(6, "cr", "dirichlet").with_halves(((0, 1),)).mapped(tri)
    (whole,) = ops.halves
    assert whole.dim == whole.C.shape[1] == ops.dim


def circle_triangle(c):
    """T_c, apex (c, sqrt(1 - c^2)) on the unit circle."""
    return TriangleShape(math.acos(c), c, math.sqrt(1.0 - c * c), on_circle=True)


def rational_coupling(plus, X, minus) -> int:
    """The number of nonzero entries of plus^T X minus, each entry of the
    product summed in exact rational arithmetic from the stored floats."""
    X, minus, plus_t = X.tocoo(), minus.tocsr(), plus.T.tocsr()
    rows = [{} for _ in range(X.shape[0])]  # X minus, row by row
    for i, j, v in zip(X.row, X.col, X.data):
        row = rows[i]
        for b in range(minus.indptr[j], minus.indptr[j + 1]):
            col = minus.indices[b]
            row[col] = row.get(col, 0) + Fraction(v) * Fraction(minus.data[b])
    nonzero = 0
    for a in range(plus_t.shape[0]):
        out = {}
        for t in range(plus_t.indptr[a], plus_t.indptr[a + 1]):
            w = Fraction(plus_t.data[t])
            for col, v in rows[plus_t.indices[t]].items():
                out[col] = out.get(col, 0) + w * v
        nonzero += sum(1 for v in out.values() if v != 0)
    return nonzero


@pytest.mark.parametrize(
    "c", [0.1234567, math.cos(1.0), math.cos(EQ)], ids=["0.1234567", "cos(1)", "fl(cos(fl(pi/3)))"]
)
@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
def test_float_pencil_splits_exactly_into_its_halves(bc, n, c):
    # on a triangle on the unit circle the stored pencil, A = fl(K0 -
    # fl(c S)) and the reference M, couples the mirror halves by no entry
    # in exact arithmetic, so eigsolve's floor test needs no coupling term.
    # The operators mapped to the float apex (cos 0.3, sin 0.3) as that
    # triangle's stiffness and mass, as points were solved before, coupled
    # them by 119 entries on CR 8 Dirichlet and 183 on CR 8 edge-mean
    ref = reference_map(n, "cr", bc)
    ops = ref.mapped(circle_triangle(c))
    plus, minus = parity_bases(ref.space)
    for X in (ops.A, ops.M):
        assert rational_coupling(plus, X, minus) == 0


def test_halves_are_kept_only_where_the_float_pencil_splits_exactly():
    # with_halves proves once per space that the stored pencil of every c
    # splits exactly between the halves (fem._splits_exactly), and
    # otherwise carries the whole space as its one part.  On CR 6
    # edge-mean the stored stiffness couples the halves by one entry at
    # every c, so a floor test in the halves would rest on a false premise
    cs = (0.1234567, math.cos(1.0), math.cos(EQ))
    ref = reference_map(6, "cr", "edge-mean")
    plus, minus = parity_bases(ref.space)
    for c in cs:
        assert rational_coupling(plus, ref.mapped(circle_triangle(c)).A, minus) == 1
    assert ref.with_halves(((0,), (1,))).layout == ((0, 1),)
    # CR 24 edge-mean: h = 1/24 is not a float, the entries that meet in
    # the coupling are rounded apart, and the split is not proven
    assert reference_map(24, "cr", "edge-mean").with_halves(((0,), (1,))).layout == ((0, 1),)
    # CR 24 Dirichlet: the stored K0, S and M are mirror-invariant entry for
    # entry, so the halves are kept, and they split exactly
    ref = reference_map(24, "cr", "dirichlet").with_halves(((0,), (1,)))
    assert ref.layout == ((0,), (1,))
    for c in cs:
        ops = ref.mapped(circle_triangle(c))
        plus, minus = (h.C for h in ops.halves)
        for X in (ops.A, ops.M):
            assert rational_coupling(plus, X, minus) == 0
    # a single part needs no split: the invariant part is kept as asked
    assert reference_map(12, "cg", "edge-mean").with_halves(((fem.INVARIANT,),)).layout == (
        (fem.INVARIANT,),
    )


def power_of_two(v: np.ndarray) -> np.ndarray:
    """Where the entries of v are plus or minus a power of two."""
    return (v != 0.0) & (np.frexp(np.abs(v))[0] == 0.5)


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
def test_proof_pencils_split_exactly_for_every_c(bc, n):
    # why the stored pencil of every CR space the proofs use splits
    # exactly, whatever c (test_float_pencil_splits_exactly_into_its_halves
    # checks the outcome on small spaces).  4 K0, 4 S and 48 n^2 M are
    # integers, so C+^T K C- is formed exactly in floating point, and it
    # vanishes for each.  The rounding of an entry of fl(K0 - fl(c S)) is
    # a function of its pair (K0, S) alone: none where S = 0, or where K0
    # = 0 and S is a power of two, and k (fl(1 - c) - (1 - c)) where K0 = S
    # = k is a power of two.  So the coupling vanishes for every c if each
    # other class of entries couples the halves by nothing, and the classes
    # K0 = S = k, weighted by k, by nothing together
    ref = _reference_operators(n, "cr", bc)
    # with_halves found the same at run time, and kept both halves
    assert ref.layout == ((0,), (1,))
    (_, plus), (_, minus) = ref.halves
    k0, s = ref.k0, ref.xy_sym
    for v in (4.0 * k0, 4.0 * s, 48.0 * n * n * ref.M.data):
        assert np.array_equal(v, np.round(v))
    for K in (ref._csr(k0), ref._csr(s), ref.M):
        assert (plus.T @ K @ minus).count_nonzero() == 0
    rows = np.repeat(np.arange(ref.dim), np.diff(ref.indptr))
    pairs, classes = np.unique(np.stack([k0, s], axis=1), axis=0, return_inverse=True)
    classes = classes.ravel()
    exact = (s == 0.0) | ((k0 == 0.0) & power_of_two(s))
    scaled = (k0 == s) & power_of_two(k0)
    together = scipy.sparse.csr_matrix((plus.shape[1], minus.shape[1]))
    for v, (k, _) in enumerate(pairs):
        entries = classes == v
        first = np.flatnonzero(entries)[0]
        if exact[first]:
            continue
        L = scipy.sparse.csr_matrix(
            (np.ones(entries.sum()), (rows[entries], ref.indices[entries])), (ref.dim, ref.dim)
        )
        B = plus.T @ L @ minus
        if scaled[first]:
            together = together + k * B
        else:
            assert B.count_nonzero() == 0, pairs[v]
    assert together.count_nonzero() == 0
    if bc == "dirichlet":
        # the mirror permutes the unknowns, and the reference K0, S and M
        # are invariant entry for entry
        space = ref.space
        position = np.full(space.full_dim, -1)
        position[space.free] = np.arange(space.free.size)
        q = position[mirror(space)[space.free]]
        for K in (ref._csr(k0), ref._csr(s), ref.M):
            assert (K[q][:, q] != K).nnz == 0


@pytest.mark.parametrize("theta", [0.05, 0.3, 0.9, 1.0, EQ], ids=["0.05", "0.3", "0.9", "1.0", "fl(pi/3)"])
@pytest.mark.parametrize("n", [12, 24])
@pytest.mark.parametrize("bc", ["dirichlet", "edge-mean"])
def test_conforming_ground_mode_is_mirror_symmetric(bc, n, theta):
    # a split conforming space is solved in its symmetric half alone.  For
    # Dirichlet the ground mode lies there by a theorem: T(theta) has angles
    # theta and (pi - theta)/2, all below pi/2, so its uniform mesh is acute
    # and the P1 stiffness an M-matrix (Ciarlet & Raviart 1973); by
    # Perron-Frobenius the ground mode is positive, so it is its own mirror
    # image.  For edge-mean this checks a measured fact.
    ops = assemble_on_angle(theta, n, "cg", bc)
    u = scipy.linalg.eigh(ops.A.toarray(), ops.M.toarray(), subset_by_index=[0, 0])[1][:, 0]
    if bc == "dirichlet":
        w = np.zeros(ops.space.full_dim)
        w[ops.space.free] = u
    else:
        w = ops.space.Z @ u
    assert np.abs(w[mirror(ops.space)] - w).max() <= 1e-9 * np.abs(w).max()


def first_narrowest_rcm(pattern):
    """(perm, width) of the reverse Cuthill-McKee order of the symmetric
    ``pattern`` that BandOrder.of documents, by a plain loop: a
    breadth-first search from each node of least degree in turn, visiting
    each node's neighbours by degree, then index, and the width of each
    order read off every entry of the pattern; the first narrowest wins."""
    n = pattern.shape[0]
    degree = np.diff(pattern.indptr)
    neighbours = [
        sorted(pattern.indices[pattern.indptr[i]:pattern.indptr[i + 1]], key=lambda j: (degree[j], j))
        for i in range(n)
    ]
    rows = np.repeat(np.arange(n), degree)
    best = None
    for start in np.flatnonzero(degree == degree.min()).tolist():
        order, seen = [start], [False] * n
        seen[start] = True
        for node in order:  # grows while it is walked: a queue
            for j in neighbours[node]:
                if not seen[j]:
                    seen[j] = True
                    order.append(j)
        perm = np.array(order[::-1])
        rank = np.empty(n, dtype=np.int64)
        rank[perm] = np.arange(n)
        width = int(np.abs(rank[rows] - rank[pattern.indices]).max())
        if best is None or width < best[1]:
            best = perm, width
    return best


def quick_and_sweep_spaces(problem):
    """(n, family) of every space of the quick proof of ``problem`` and of
    the sweeps of its paper-config proof."""
    quick, paper = quick_config(problem), paper_config(problem)
    return sorted({
        (quick.cg_n, "cg"), (quick.cr_n, "cr"), (quick.eq_cg_n, "cg"), (quick.eq_cr_n, "cr"),
        (paper.cg_n, "cg"), (paper.cr_n, "cr"),
    })


BAND_SPACES = [
    (problem, n, family)
    for problem in ("dirichlet", "cr-constant")
    for n, family in quick_and_sweep_spaces(problem)
]


@pytest.mark.parametrize("problem, n, family", BAND_SPACES)
def test_band_order_is_the_first_narrowest_rcm_order(problem, n, family):
    ref = _reference_operators(n, family, _BC[problem])
    for half, _ in ref.halves:
        m = half.dim
        # each half is stored in its band order; the pattern of A and M in
        # the order of the parity bases' columns is the one BandOrder.of was
        # given
        stored = (
            scipy.sparse.csr_matrix((np.ones(half.indices.size), half.indices, half.indptr), (m, m))
            + abs(half.M)
        ).tocsr()
        rank = np.argsort(half.band.perm)
        pattern = stored[rank][:, rank].tocsr().sorted_indices()
        band = BandOrder.of(pattern)
        assert np.array_equal(np.sort(band.perm), np.arange(m))
        rank = np.argsort(band.perm)
        rows = np.repeat(np.arange(m), np.diff(pattern.indptr))
        assert np.abs(rank[rows] - rank[pattern.indices]).max() == band.width
        perm, width = first_narrowest_rcm(pattern)
        assert band.width == width
        assert np.array_equal(band.perm, perm)
        assert np.array_equal(half.band.perm, band.perm) and half.band.width == band.width
        # stored in that order, the pattern lies within the band as it stands
        rows = np.repeat(np.arange(m), np.diff(stored.indptr))
        assert np.abs(rows - stored.indices).max() == band.width

