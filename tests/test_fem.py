"""Assembly oracles.

The sharpest checks are closed-form discrete eigenvalues on tiny
equilateral meshes, worked out by hand from the hat-function gradients:

* conforming family, zero trace, n=3: one interior dof, lambda_h = 72;
* nonconforming family, zero trace, n=2: three interior dofs with
  lambda_h = (32, 80, 80).

Everything else is structural: operator identities, constraint
satisfaction after prolongation, affine equivariance of the gram triple,
agreement of the reference-mapped operators with direct assembly, and
the split of each space into its two mirror-parity halves.
"""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    EQ,
    eliminate_by_loops,
    gram_triple,
    map_derivative_gram,
    operators,
    shear,
    side_differences_by_loops,
)
from tricert.certify import _BC, _reference_operators, paper_config, quick_config
from tricert import fem
from tricert.fem import BandOrder, ReferenceMap, assemble, build_space, mirror, parity_bases
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
    mapping = ReferenceMap.of(ref)
    mapped = mapping.mapped(tri)
    assert (mapped.Kxx, mapped.Kxy, mapped.Kyy) == (None, None, None)
    grams = mapping.grams(tri)
    got = dict(Kxx=grams.Kxx, Kxy=grams.Kxy, Kyy=grams.Kyy, A=mapped.A, M=mapped.M)

    for name in ("A", "M", "Kxx", "Kyy"):
        want = getattr(direct, name).toarray()
        assert np.abs(got[name].toarray() - want).max() <= 1e-13 * np.abs(want).max(), name
    u = np.random.default_rng(5).standard_normal(direct.dim)
    scale = float(np.abs(u) @ (abs(direct.Kxy) @ np.abs(u)))
    assert abs(u @ (got["Kxy"] @ u) - u @ (direct.Kxy @ u)) <= 1e-13 * scale

    assert mapped.space.mesh.triangle == tri
    assert mapped.space.mesh.h == direct.space.mesh.h
    assert np.array_equal(mapped.space.mesh.nodes, direct.space.mesh.nodes)
    assert mapped.mass_min_eig_lower() == direct.mass_min_eig_lower()


@pytest.mark.parametrize(
    "family, bc",
    [("cg", "dirichlet"), ("cg", "edge-mean"), ("cr", "dirichlet"), ("cr", "edge-mean")],
)
def test_mapped_operators_equal_the_sparse_algebra_bit_for_bit(family, bc):
    # mapped evaluates the identities entrywise on a pattern fixed per
    # reference space; their sparse-matrix form is the reference, and
    # every stored index and value must be the same
    ref = assemble(build_space(uniform_subdivide(triangle_from_vertex(0.0, 1.0), 12), family, bc))
    Kxx, Kxy, Kyy = ref.Kxx, ref.Kxy, ref.Kyy
    mapping = ReferenceMap.of(ref)
    tris = [triangle_from_angle(t) for t in (0.05, 0.5, 1.0, EQ, math.pi / 2, 2.0)]
    for tri in tris + [triangle_from_vertex(0.0, 1.0), triangle_from_vertex(-0.4, 0.5)]:
        bx, by = tri.bx, tri.by
        kxx = by * Kxx
        kyy = ((bx * bx) * Kxx - bx * (Kxy + Kxy.T) + Kyy) / by
        want = {
            "A": (kxx + kyy).tocsr(), "M": by * ref.M, "Kxx": kxx,
            "Kxy": (Kxy - bx * Kxx).tocsr(), "Kyy": kyy.tocsr(),
        }
        mapped, grams = mapping.mapped(tri), mapping.grams(tri)
        got = dict(Kxx=grams.Kxx, Kxy=grams.Kxy, Kyy=grams.Kyy, A=mapped.A, M=mapped.M)
        for name, w in want.items():
            # the one pass of grams gives the A and M of mapped as well
            for g in (got[name], getattr(grams, name)):
                assert np.array_equal(g.indptr, w.indptr), name
                assert np.array_equal(g.indices, w.indices), name
                assert g.data.tobytes() == w.data.tobytes(), name


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
        ReferenceMap.of(operators(EQ, 4, "cg", "dirichlet"))


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
    on_circle = math.isclose(math.hypot(tri.bx, tri.by), 1.0)
    parts = ((0,), (1,)) if on_circle else ((0, 1),)
    halves = reference_map(n, family, bc).with_halves(parts).mapped(tri).halves
    whole = assemble(build_space(uniform_subdivide(tri, n), family, bc))
    want = scipy.linalg.eigh(whole.A.toarray(), whole.M.toarray(), eigvals_only=True)
    got = np.sort(np.concatenate([
        scipy.linalg.eigh(h.A.toarray(), h.M.toarray(), eigvals_only=True) for h in halves
    ]))
    assert np.all(np.abs(got - want) <= 1e-10 * want)
    for h in halves:
        # each part is the congruence of the whole pencil by its basis
        for name in ("A", "M"):
            full = getattr(whole, name)
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
    ops = operators(theta, n, "cg", bc)
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

