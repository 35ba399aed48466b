"""P1 conforming and Crouzeix-Raviart nonconforming spaces on a triangle mesh.

Two boundary treatments are supported:

* ``dirichlet``: zero trace.  For the conforming space this removes
  boundary nodes; for CR it removes boundary-edge dofs (the dof is the
  edge mean, and a broken linear with zero edge mean on a boundary edge
  is the natural CR notion of zero trace).
* ``edge-mean``: the integral of v over each of the three parent sides
  vanishes.  This is a three-dimensional constraint handled by an
  explicit null-space basis Z, one slave dof per side, so reduced
  operators are congruent transforms Z^T K Z of the full ones.

All matrices are assembled from exact closed-form integrals of the
polynomial integrands; no quadrature error enters.

Every triangle with base (0,0)-(1,0) and apex (c, s) is the image of
the reference triangle T_ref = conv((0,0), (1,0), (0,1)) under
F(X, Y) = (X + c Y, s Y), and the n-fold uniform mesh of T is the image
of the n-fold mesh of T_ref node by node.  Basis functions therefore
pull back to basis functions with the same numbering, the constraints
(Dirichlet dofs, edge-mean weights) do not depend on the apex, and for u
on T with pull-back U(X, Y) on T_ref, u_x = U_X, u_y = (U_Y - c U_X) /
s and dx dy = s dX dY give, with S = Kxy_ref + Kxy_ref^T,

    Kxx = s Kxx_ref
    Kxy = Kxy_ref - c Kxx_ref
    Kyy = (c^2 Kxx_ref - c S + Kyy_ref) / s
    M   = s M_ref

for the full operators, and for the reduced ones too, since reduction
(a principal submatrix, or a congruence with Z) does not depend on the
apex.  So with K0 = Kxx_ref + Kyy_ref and kappa = c^2 + s^2 - 1,

    s A = K0 - c S + kappa Kxx_ref,    M / s = M_ref,

and A x = lambda M x exactly when (K0 - c S + kappa Kxx_ref) x = mu M_ref
x with mu = lambda s^2: the linear transplantation of Laugesen and
Siudeja (Comm. Anal. Geom. 19, 2011).  :class:`ReferenceMap` maps every
space and part to this pencil, so one assembly per mesh size serves
every triangle.  A point at theta certifies T_c, apex (c, sqrt(1 -
c^2)) with c = fl(cos theta), on the unit circle exactly, where the
pencil is K0 - c S, and s^2 = 1 - c^2 enters only the conversion lambda
= mu / s^2, in interval arithmetic (:class:`geometry.Shear`).

The lattice swap (i, j) -> (j, i) of T_ref (:func:`mirror`) exchanges X
and Y, so it maps Kxx_ref and Kyy_ref onto each other and keeps K0, S
and M_ref: it is the reflection of every isosceles T_c and maps its
pencil onto itself.  Each space is the direct sum of its
mirror-symmetric and antisymmetric halves (:func:`parity_bases`), and
that pencil splits with it, exactly on its floats wherever
:func:`_splits_exactly` proves it, as on every proof space
(:mod:`eigsolve`).
:meth:`ReferenceMap.with_halves` keeps the reference grams of parts of
the space, each spanned by the bases of one or both parities: a half
serves a triangle on the unit circle, and the whole space, spanned by
both bases side by side, any triangle.  An edge-mean
space keeps its slave basis Z, but its parts are spanned by local
differences along each parent side, which keep a part's pencil as sparse
as the lattice, where Z couples every dof of a side.

T(pi/3), the equilateral triangle, has a larger symmetry group: the
lattice rotation (i, j) -> (n - i - j, i) (:func:`rotation`) is its
rotation by 120 degrees, and with the mirror it generates the dihedral
group D3 of six elements.  The part of a space invariant under the whole
group (:func:`invariant_basis`, part code :data:`INVARIANT`) is spanned
by one column per orbit of the group, about a third of the symmetric
half; on it the three edge-mean constraints are one.  A map with that
part serves T(pi/3) alone.

The sparsity pattern of A and M does not depend on the apex either, so a
symmetric ordering of a part's unknowns that packs its pencil into a
narrow band (:class:`BandOrder`) is computed once, on its reference
operators, and serves every apex: each part is stored in that order, so
every operator mapped from it is banded as it stands.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from .geometry import Shear, TriangleShape
from .mesh import Mesh
from .rounding import EPS, dn, gamma, up

_SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))

# Relative rounding, against the magnitudes of their terms, of a part's
# entries between its reference grams and the band eigsolve packs A -
# sigma M of it in: two maps to a triangle, the whole space's and the
# part's, of at most 4 roundings an entry (c S, its difference with K0,
# kappa Kxx and its sum), and the packing (2), with room
_MAP_GAMMA = gamma(12)

FAMILIES = ("cg", "cr")
BCS = ("dirichlet", "edge-mean")

# The code of the part invariant under the whole symmetry group of the
# equilateral triangle (:func:`invariant_basis`), beside the parities 0
# and 1 of the mirror halves, in the part layouts of
# :meth:`ReferenceMap.with_halves`
INVARIANT = 2


@dataclass(frozen=True)
class FemSpace:
    mesh: Mesh
    family: str
    bc: str
    full_dim: int
    dof_count: int
    free: np.ndarray | None      # dirichlet: retained dof indices
    Z: sp.csr_matrix | None      # edge-mean: explicit null-space basis

    def reduce(self, K: sp.csr_matrix) -> sp.csr_matrix:
        if self.free is not None:
            return K[self.free][:, self.free].tocsr()
        return (self.Z.T @ K @ self.Z).tocsr()


def build_space(mesh: Mesh, family: str, bc: str) -> FemSpace:
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if bc not in BCS:
        raise ValueError(f"bc must be one of {BCS}, got {bc!r}")

    full_dim = mesh.n_nodes if family == "cg" else mesh.n_edges

    if bc == "dirichlet":
        if family == "cg":
            free = np.nonzero(~mesh.boundary_node_mask())[0]
        else:
            free = np.nonzero(mesh.edge_side == -1)[0]
        if free.size == 0:
            raise ValueError(
                f"{family}/dirichlet space on n={mesh.n} has dimension 0; refine the mesh"
            )
        return FemSpace(mesh, family, bc, full_dim, int(free.size), free, None)

    Z = _eliminate(_edge_mean_constraints(mesh, family), full_dim)
    if Z.shape[1] == 0:
        raise ValueError(
            f"{family}/edge-mean space on n={mesh.n} has dimension 0; refine the mesh"
        )
    return FemSpace(mesh, family, bc, full_dim, int(Z.shape[1]), None, Z)


def _edge_mean_constraints(mesh: Mesh, family: str) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """(dofs, weights, slave) of the mean constraint of each parent side.

    Constraint s involves only side-s dofs, and the slave chosen for it
    appears in no other constraint.  Constant side factors are dropped;
    they do not change the null space.
    """
    constraints = []
    for s in range(3):
        if family == "cg":
            dofs = mesh.side_nodes(s)
            if dofs.size < 3:
                # no interior side node available as a slave
                raise ValueError(
                    f"cg/edge-mean needs n >= 2 sub-edges per side, mesh has n={mesh.n}"
                )
            # trapezoid weights, exact for functions linear on each sub-edge
            w = np.ones(dofs.size)
            w[0] = w[-1] = 0.5
            slave_pos = 1
        else:
            dofs = mesh.side_edges(s)
            if dofs.size < 2:
                raise ValueError(
                    f"cr/edge-mean needs n >= 2 sub-edges per side, mesh has n={mesh.n}"
                )
            w = np.ones(dofs.size)
            slave_pos = 0
        constraints.append((dofs, w, int(dofs[slave_pos])))
    return constraints


def _eliminate(constraints: list[tuple[np.ndarray, np.ndarray, int]], dim: int) -> sp.csr_matrix:
    """Null-space basis of ``constraints`` on ``dim`` coordinates.

    Each slave appears in no other constraint, so eliminating each slave
    from its own constraint satisfies all of them at once: the basis is
    the identity on the masters (:func:`_masters`), and a slave's row
    solves its constraint.
    """
    masters = _masters(constraints, dim)
    col_of = np.full(dim, -1)
    col_of[masters] = np.arange(masters.size)

    rows, cols, vals = [masters], [np.arange(masters.size)], [np.ones(masters.size)]
    for dofs, w, slave in constraints:
        master = dofs != slave
        rows.append(np.full(np.count_nonzero(master), slave))
        cols.append(col_of[dofs[master]])
        vals.append(-w[master] / w[~master][0])
    rows, cols, vals = (np.concatenate(parts) for parts in (rows, cols, vals))
    return sp.coo_matrix((vals, (rows, cols)), shape=(dim, masters.size)).tocsr()


def _masters(constraints: list[tuple[np.ndarray, np.ndarray, int]], dim: int) -> np.ndarray:
    """The coordinates that are no constraint's slave."""
    slaves = [c[2] for c in constraints]
    if len(set(slaves)) != len(slaves):
        raise AssertionError("slave dofs must be distinct")
    master = np.ones(dim, dtype=bool)
    master[slaves] = False
    return np.flatnonzero(master)


def mirror(space: FemSpace) -> np.ndarray:
    """The mirror of T_ref, the lattice swap (i, j) -> (j, i), as the
    permutation of the full dofs of ``space``: it maps dof k to dof p[k].

    The swap exchanges sides 0 and 2 and reverses side 1.  On T(theta),
    whose sides 0 and 2 both have length 1, it is the reflection in the
    bisector of the angle at the origin, an isometry, so it maps the
    uniform mesh, each space and each constraint onto itself and leaves
    the mapped A and M invariant.
    """
    return _lattice_permutation(space, lambda i, j, n: (j, i))


def rotation(space: FemSpace) -> np.ndarray:
    """The lattice rotation (i, j) -> (n - i - j, i) of T_ref, as the
    permutation of the full dofs of ``space`` (:func:`mirror`).

    It cycles the vertices (0,0) -> (1,0) -> (0,1) -> (0,0) and the sides
    0 -> 1 -> 2 -> 0, each in its order along the side or reversed.  On
    T(pi/3), the equilateral triangle, it is the rotation by 120 degrees
    about the centre, an isometry, so it too maps the mesh, each space
    and each constraint onto itself and leaves A and M invariant.
    """
    return _lattice_permutation(space, lambda i, j, n: (n - i - j, i))


def _lattice_permutation(space: FemSpace, image) -> np.ndarray:
    """The map (i, j) -> ``image(i, j, n)`` of the lattice of T_ref onto
    itself, which maps the uniform mesh onto itself, as the permutation
    of the full dofs of ``space``: it maps dof k to dof p[k]."""
    mesh = space.mesh
    i = mesh.lattice[:, 0].astype(np.int64)
    j = mesh.lattice[:, 1].astype(np.int64)
    # ascending, since the lattice is row-lexicographic in (j, i)
    keys = j * (mesh.n + 1) + i
    image_i, image_j = image(i, j, mesh.n)
    nodes = np.searchsorted(keys, image_j * (mesh.n + 1) + image_i)
    if space.family == "cg":
        return nodes
    a, b = nodes[mesh.edges[:, 0]], nodes[mesh.edges[:, 1]]
    # ascending, since the edges are sorted pairs in lexicographic order
    edge_keys = mesh.edges[:, 0].astype(np.int64) * mesh.n_nodes + mesh.edges[:, 1]
    return np.searchsorted(edge_keys, np.minimum(a, b) * mesh.n_nodes + np.maximum(a, b))


def parity_bases(space: FemSpace) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Bases C+ and C- of the mirror-symmetric and antisymmetric halves of
    ``space``, as maps from half coordinates to the space's reduced
    coordinates.

    An orbit of the mirror p spans e_k + e_p(k) (symmetric; e_k alone
    where p(k) = k) and e_k - e_p(k) (antisymmetric) (:func:`_orbit_basis`).
    Under the mirror the edge-mean constraint of side 2 is that of side
    0, and that of side 1 is itself, so on symmetric vectors sides 0 and 2
    give one constraint and side 1 another, while on antisymmetric ones
    side 1 holds by itself and side 2 follows from side 0.  Every column
    lifts to a vector that meets all three constraints, so the two halves
    split the space and, for the mapped operators of T(theta), its pencil.
    """
    return _symmetry_bases(space, (0, 1))


def invariant_basis(space: FemSpace) -> sp.csr_matrix:
    """Basis of the part of ``space`` invariant under the mirror and the
    rotation, the whole symmetry group of the equilateral triangle, as a
    map from part coordinates to the space's reduced coordinates.

    An orbit of the group spans the sum of its e_k (:func:`_orbit_basis`).
    The rotation cycles the three sides, so on invariant vectors the
    three edge-mean constraints are one, that of side 0.
    """
    return _symmetry_bases(space, (INVARIANT,))[0]


def _symmetry_bases(space: FemSpace, codes) -> tuple[sp.csr_matrix, ...]:
    """The basis of each part code of ``codes``: the mirror-symmetric (0)
    and antisymmetric (1) halves and the :data:`INVARIANT` part."""
    n = space.full_dim
    identity, p = np.arange(n), mirror(space)
    bases = []
    for code in codes:
        if code == INVARIANT:
            r = rotation(space)
            group = (identity, r, r[r], p, p[r], p[r[r]])
            bases.append(_orbit_basis(space, group, (1.0,) * 6, (0,)))
        else:
            sign, sides = ((1.0, (0, 1)), (-1.0, (0,)))[code]
            bases.append(_orbit_basis(space, (identity, p), (1.0, sign), sides))
    return tuple(bases)


def _orbit_basis(space: FemSpace, group, signs, sides) -> sp.csr_matrix:
    """Basis, in the reduced coordinates of ``space``, of the vectors that
    each element g of ``group`` maps to signs[g] times themselves, the
    group given by the images of every full dof under each element, and
    ``signs`` a character of it (+-1 each); ``sides`` lists the edge-mean
    constraints that remain distinct on such vectors.

    Each orbit of dofs spans the sum over the group of signs[g] e_g(k),
    for k its smallest dof, scaled so that each entry is +-1; where the
    sum cancels, on an orbit that an element of sign -1 fixes, it spans
    nothing.  The Dirichlet dofs are a union of orbits, so each Dirichlet
    part is spanned by its orbits.  Each edge-mean part is spanned by
    local differences of its orbits along each remaining side
    (:func:`_side_differences`), not through the space's slave basis Z,
    whose side means couple every dof of a side.
    """
    n = space.full_dim
    if space.free is not None:
        kept = np.zeros(n, dtype=bool)
        kept[space.free] = True
        reduced = space.free
    else:
        kept = np.ones(n, dtype=bool)
        constraints = _edge_mean_constraints(space.mesh, space.family)
        reduced = _masters(constraints, n)
    images = np.stack(group)
    # one column per orbit of kept dofs, led by its smallest dof
    lead = np.flatnonzero(kept & (images.min(axis=0) == np.arange(n)))
    cols = np.tile(np.arange(lead.size), len(group))
    S = sp.csr_matrix(
        (np.repeat(signs, lead.size), (images[:, lead].ravel(), cols)), shape=(n, lead.size)
    )
    S.data = np.sign(S.data)
    S.eliminate_zeros()
    spans = S.getnnz(axis=0) > 0
    if not spans.all():
        S = S[:, spans]
    if space.Z is not None:
        S = S @ _side_differences([constraints[s][:2] for s in sides], S)
    return S.tocsr()[reduced]


def _side_differences(sides: list[tuple[np.ndarray, np.ndarray]], S: sp.csr_matrix) -> sp.csr_matrix:
    """A null-space basis, in the coordinates of S, of the side-mean
    constraints given as (dofs in order along the side, weights), built
    from local differences as in the sparse null-space methods of Benzi,
    Golub & Liesen, Acta Numerica 14 (2005), section 6.

    In the coordinates of S the constraint of a side reads g . x = 0, on
    the coordinates of its dofs taken in order along the side.  Each
    adjacent pair (a, b) of the coordinates that one constraint alone
    involves gives the column g_b e_a - g_a e_b.  A coordinate c that both
    involve (the orbit of the two far corners of a CG space) gives the
    column g_x h_y e_c - g_c h_y e_x - h_c g_x e_y, with x and y the
    nearest such coordinates of the constraints g and h.  Every other
    coordinate keeps e_c.  As g and h hold small integers and halves, each
    column meets every constraint exactly in floating point.  A column is
    filed under b, or c, and the columns follow the order of those
    coordinates, the lattice order of their orbits.
    """
    m = S.shape[1]
    entries = S.tocoo()
    col_of = np.full(S.shape[0], -1)
    col_of[entries.row] = entries.col
    lines = []  # each constraint's g, and the coordinates it involves along its side
    for dofs, w in sides:
        g = S[dofs].T @ w
        cols = col_of[dofs]
        cols = cols[cols >= 0]
        _, first = np.unique(cols, return_index=True)
        along = cols[np.sort(first)]
        lines.append((g, along[g[along] != 0.0]))
    involved = np.bincount(np.concatenate([along for _, along in lines]), minlength=m)
    # every entry of every column as (the coordinate it is filed under, row,
    # value), each column's entries in order
    free = np.flatnonzero(involved == 0)
    keys, rows, vals = [free], [free], [np.ones(free.size)]
    for g, along in lines:
        own = along[involved[along] == 1]
        a, b = own[:-1], own[1:]
        keys += [b, b]
        rows += [a, b]
        vals += [g[b], -g[a]]
    for c in np.flatnonzero(involved == 2):
        (g, along), (h, across) = lines
        x, y = _nearest_own(along, involved, c), _nearest_own(across, involved, c)
        keys.append(np.full(3, c))
        rows.append(np.array([c, x, y]))
        vals.append(np.array([g[x] * h[y], -g[c] * h[y], -h[c] * g[x]]))
    keys, rows, vals = (np.concatenate(parts) for parts in (keys, rows, vals))
    filed = np.argsort(keys, kind="stable")
    keys = keys[filed]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    cols = np.cumsum(first) - 1
    return sp.csr_matrix((vals[filed], (rows[filed], cols)), shape=(m, int(first.sum())))


def _nearest_own(along: np.ndarray, involved: np.ndarray, c: int) -> int:
    """The coordinate of ``along`` nearest to c in its order that no other
    constraint involves."""
    at = int(np.flatnonzero(along == c)[0])
    own = np.flatnonzero(involved[along] == 1)
    return int(along[own[np.argmin(np.abs(own - at))]])


@dataclass(frozen=True)
class BandOrder:
    """A symmetric ordering of a space's unknowns: unknown ``perm[k]`` is
    the k-th, and every entry of the pattern it was made for lies at most
    ``width`` off the diagonal in this order."""

    perm: np.ndarray
    width: int

    @classmethod
    def of(cls, pattern: sp.csr_matrix) -> "BandOrder":
        """The narrowest reverse Cuthill-McKee order of the symmetric,
        connected ``pattern`` started from a node of least degree, the
        first such node on ties.

        Where several nodes share the least degree the start sets the
        width: on an edge-mean half they lie along the mirror line, and
        some starts give a band half as wide again as others.  Each
        row's neighbours are sorted by degree, then index, so that a
        breadth-first search visits them in Cuthill-McKee order; the
        result does not depend on how a sort breaks ties.
        """
        n = pattern.shape[0]
        degree = np.diff(pattern.indptr)
        rows = np.repeat(np.arange(n), degree)
        by_degree = np.lexsort((pattern.indices, degree[pattern.indices], rows))
        graph = sp.csr_matrix(
            (np.ones(by_degree.size), pattern.indices[by_degree], pattern.indptr), (n, n)
        )
        # a breadth-first search discovers each node from its neighbour
        # visited first, so with the pattern symmetric no entry lies
        # farther from the diagonal than a node from its predecessor: the
        # width of an order is the largest of those n - 1 distances
        steps = np.arange(n, dtype=np.int32)
        visit, gap = np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int32)
        best = None
        for start in np.flatnonzero(degree == degree.min()):
            order, pred = breadth_first_order(graph, start, return_predecessors=True)
            if order.size < n:
                raise ValueError("the pattern must be connected")
            visit[order] = steps
            pred[start] = start
            width = int(np.subtract(visit, visit.take(pred), out=gap).max())
            if best is None or width < best[1]:
                best = order, width
        order, width = best
        return cls(order[::-1].astype(np.int64), width)


def _band_slots(
    indptr: np.ndarray, indices: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """(keep, pos): where a matrix stored on the CSR pattern (``indptr``,
    ``indices``), in band order and at most ``width`` wide, lies in
    LAPACK's upper band storage.  Its stored entries ``data[keep]`` make
    up its upper triangle, and go to the flat positions ``pos`` of a
    (width + 1, n) array in column-major order: entry (i, j), i <= j, at
    [width + i - j, j].
    """
    n, w = indptr.size - 1, width
    j = indices.astype(np.int64)
    d = j - np.repeat(np.arange(n), np.diff(indptr))
    # an entry outside the band would overwrite another's position
    if d.max(initial=0) > w:
        raise ValueError(f"pattern exceeds its band width {w}")
    keep = np.flatnonzero(d >= 0)
    # the cache holds the slots of every reference space: int32 halves
    # them (5.5 to 2.7 MB for the corner spaces) and holds every
    # position of a band below 16 GB
    return keep.astype(np.int32), (w - d + (w + 1) * j)[keep].astype(np.int32)


def _permuted(indptr: np.ndarray, indices: np.ndarray, perm: np.ndarray):
    """(indptr, indices, take): the canonical CSR pattern of a square
    matrix stored on (``indptr``, ``indices``) with its rows and columns
    taken in the order ``perm``.  Its stored entry t is the original's
    entry ``take[t]``, so ``data[take]`` are its values.
    """
    n = indptr.size - 1
    # each entry carries its position, plus one so that none is zero
    ids = sp.csr_matrix((np.arange(1, indices.size + 1), indices, indptr), (n, n))[perm][:, perm]
    ids.sort_indices()
    return ids.indptr, ids.indices, ids.data - 1


@dataclass(frozen=True)
class DiscreteOperators:
    """Reduced stiffness/mass family for one space.

    Operators assembled on a triangle (:func:`assemble`) hold its
    stiffness A = Kxx + Kyy, its mass matrix M and the partial-derivative
    grams Kxx, Kxy and Kyy; Kxy is stored as assembled (row index
    differentiates in x, column in y); only its quadratic form is used.
    Operators mapped from a reference space (:meth:`ReferenceMap.mapped`)
    hold the pencil of a triangle on T_ref, A = K0 - c S + kappa Kxx and
    M the reference mass matrix, whose eigenvalues are mu = lambda s^2
    (module docstring), on the reference space; they leave the grams out
    and carry the parts (:class:`Half`) the solvers work in.  Assembled
    operators, which carry none, the solvers refuse.
    """

    space: FemSpace
    A: sp.csr_matrix
    M: sp.csr_matrix
    Kxx: sp.csr_matrix | None = None
    Kxy: sp.csr_matrix | None = None
    Kyy: sp.csr_matrix | None = None
    halves: tuple[Half, ...] = ()

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def mass_min_eig_lower(self) -> float:
        """Certified lower bound on the smallest eigenvalue of M.

        Element mass matrices satisfy M_e >= (area_e/12) I for P1 and
        M_e = (area_e/3) I for CR, so the assembled M dominates
        (min area)/12 resp. /3 times the identity.  Dirichlet reduction
        is a principal submatrix (interlacing) and the edge-mean basis
        has Z^T Z = I + W^T W >= I, so the bound survives reduction.
        Mapped operators hold the reference M on the reference space, so
        theirs is the bound of T_ref's mesh, fixed per mesh size.
        """
        tri = self.space.mesh.triangle
        n = self.space.mesh.n
        area_low = dn(dn(0.5 * tri.by, 2) / (n * n), 2)
        return area_low / 12.0 if self.space.family == "cg" else dn(area_low / 3.0)


@dataclass(frozen=True)
class Half:
    """One part of a space's pencil: a mirror-parity half of a triangle on
    the unit circle, the part invariant under the symmetry group of
    T(pi/3), or the whole space, spanned by both parity bases, on any
    triangle.

    A and M act on part coordinates, and C (the bases of the part's
    codes, :func:`parity_bases` or :func:`invariant_basis`, side by
    side) lifts them to the space's reduced coordinates: A = C^T A_space
    C, and likewise M.  The coordinates are in the band order of the part's map
    (:meth:`ReferenceMap.with_halves`), so no entry of A or M lies more
    than ``width`` off the diagonal, and ``slots`` holds the
    :func:`_band_slots` of A and of M, where the solvers pack A - sigma M
    for its banded Cholesky factor.  Both are fixed on the reference
    patterns A and M are stored on: A keeps an entry that vanishes at
    this apex as an explicit zero, which changes no product.

    ``residue`` is a (stiffness, mass) pair (a, m) of certified bounds,
    read as a + |sigma| m at a shift sigma, on the 2-norm of what the
    stored part lacks of C^T (A - sigma M) C of the space's A and M: the
    rounding of the congruence, of both maps and of the packing, and the
    entries :func:`_congruent` dropped (:meth:`PartMap.bounds`).
    """

    A: sp.csr_matrix
    M: sp.csr_matrix
    C: sp.csr_matrix
    width: int
    slots: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    residue: tuple[float, float]

    @property
    def dim(self) -> int:
        return self.A.shape[0]


class _PencilValues:
    """The stiffness K0 - c S + kappa Kxx of a triangle's pencil, by the
    identities of the module docstring, from reference values ``k0``,
    ``xy_sym`` (S) and ``xx`` on one union pattern."""

    def _stiffness(self, c: float, kappa: float) -> np.ndarray:
        """The values of K0 - c S + kappa Kxx on the union pattern, every
        entry by the same operations, so that entries equal in K0, S and
        Kxx are equal here too."""
        stiff = np.multiply(self.xy_sym, -c)
        stiff += self.k0
        if kappa:
            stiff += np.multiply(self.xx, kappa)
        return stiff

    @functools.cached_property
    def _pattern(self) -> sp.csr_matrix:
        """A matrix on the union pattern, which every matrix mapped on it
        copies (:func:`on_pattern`)."""
        n = self.indptr.size - 1
        return sp.csr_matrix((self.k0, self.indices, self.indptr), shape=(n, n))


@dataclass(frozen=True)
class PartMap(_PencilValues):
    """The map of one part of a space (:meth:`ReferenceMap.with_halves`):
    its M, and Kxx, S and K0 as values on the union pattern (``indptr``,
    ``indices``) of their congruences, all in the order ``band``, which
    takes its k-th unknown from column ``band.perm[k]`` of the parity
    bases, with the band positions ``slots`` of its A and M patterns that
    its mapped :class:`Half` carries.

    ``residue`` holds certified bounds on the reference grams behind
    :attr:`Half.residue`, which :meth:`bounds` maps to a triangle:
    residue[g] bounds the 2-norm of C^T K C less the stored part gram,
    plus :data:`_MAP_GAMMA` times the magnitudes |C^T| |K| |C| of its
    terms, for K in (K0, S, Kxx, M).
    """

    M: sp.csr_matrix
    indptr: np.ndarray
    indices: np.ndarray
    xx: np.ndarray
    xy_sym: np.ndarray
    k0: np.ndarray
    band: BandOrder
    slots: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    residue: tuple[float, float, float, float]

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    def bounds(self, shear: Shear) -> tuple[float, float]:
        """The residue of the :class:`Half` this part maps to on the
        triangle of ``shear``: r_K0 + |c| r_S + |kappa| r_Kxx for the
        stiffness, rounded up over its few operations, and r_M for the
        mass, which is not mapped."""
        r = self.residue
        kappa = max(-shear.kappa.lo, shear.kappa.hi)
        return up((r[0] + abs(shear.c) * r[1] + kappa * r[2]) * (1.0 + 8.0 * EPS)), r[3]


@dataclass(frozen=True)
class ReferenceMap(_PencilValues):
    """Operators assembled on T_ref, kept in the form that carries them to
    any triangle entry by entry.

    xx, xy_sym and k0 hold Kxx, S = Kxy + Kxy^T and K0 = Kxx + Kyy as
    value arrays on the union of the sparsity patterns of Kxx, Kxy, Kxy^T
    and Kyy (``indptr``, ``indices``, canonical CSR order), 0 where a
    matrix has no entry: with M they are all a triangle's pencil reads,
    and no matrix of them is kept.  The sums S and K0 are rounded once and
    trusted like the assembled grams on the CR side (rayleigh_bound counts
    them).  ``halves`` holds a (:class:`PartMap`, basis) pair for each
    part, and ``layout`` its part codes (:meth:`with_halves`)."""

    space: FemSpace
    M: sp.csr_matrix
    indptr: np.ndarray
    indices: np.ndarray
    xx: np.ndarray
    xy_sym: np.ndarray
    k0: np.ndarray
    halves: tuple[tuple[PartMap, sp.csr_matrix], ...] = ()
    layout: tuple[tuple[int, ...], ...] = ()

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    @classmethod
    def of(cls, ops: DiscreteOperators) -> "ReferenceMap":
        """The map of ``ops``, whose grams must be in canonical CSR form,
        as :func:`assemble` leaves them.  The map keeps ``ops.M`` and makes
        its index arrays read-only, as every mapped operator shares them."""
        ref = ops.space.mesh.triangle
        if (ref.bx, ref.by) != (0.0, 1.0):
            raise ValueError(
                f"operators must be assembled on the reference triangle, apex ({ref.bx}, {ref.by})"
            )
        indptr, indices, (xx, xy, yx, yy) = _union((ops.Kxx, ops.Kxy, ops.Kxy.T.tocsr(), ops.Kyy))
        for index in (ops.M.indptr, ops.M.indices):
            index.flags.writeable = False
        return cls(ops.space, ops.M, indptr, indices, xx, xy + yx, xx + yy)

    def with_halves(self, parts: tuple[tuple[int, ...], ...]) -> "ReferenceMap":
        """This map carrying one part for each of ``parts``, in that order,
        each a group of part codes: the symmetric (0) or antisymmetric (1)
        half, with (0, 1) the whole space, or the part invariant under
        the equilateral triangle's symmetry group (:data:`INVARIANT`).  A
        part is spanned by the bases of its codes side by side, C = [C+
        C-] for the whole space, and its map holds C^T K C for K in (M,
        Kxx, S, K0), less its cancellation residue (:func:`_congruent`).
        Each part is then stored in its band order (:func:`_band_order`):
        its grams, its M and the columns of C are permuted once for every
        angle, and its map gets the band slots of its A and M patterns, so
        that no solve permutes a vector or a matrix.

        The parity bases are bases of the lattice's spaces, which need no
        mirror, so the whole part serves any triangle; a half serves only
        a triangle on the unit circle, where the pencil splits, and the
        invariant part only T(pi/3) (:meth:`parts`).

        Parts certified against one another (:mod:`eigsolve`) need every
        such stored pencil to split exactly between them, which
        :func:`_splits_exactly` proves here; where it cannot, as on CR 6
        edge-mean, whose stored stiffness couples the halves at every c,
        the map carries the whole space instead.  Its layout is the parts
        it carries.
        """
        codes = sorted({code for part in parts for code in part})
        bases = dict(zip(codes, _symmetry_bases(self.space, codes)))
        spans = [sp.hstack([bases[code] for code in part], format="csr") for part in parts]
        if not all(
            _splits_exactly(self.indptr, self.indices, self.k0, self.xy_sym, P, Q)
            and _splits_exactly(self.M.indptr, self.M.indices, self.M.data, np.zeros(self.M.nnz), P, Q)
            for i, P in enumerate(spans)
            for Q in spans[i + 1:]
        ):
            return self.with_halves(((0, 1),))

        def grams():
            # one whole-space gram at a time, so that a build's memory peak
            # holds one of them, not all three: the builds in the caller of
            # a process pool set its resident peak, which its workers inherit
            yield self.M
            for v in (self.xx, self.xy_sym, self.k0):
                yield self._csr(v)

        halves = []
        for C in spans:
            (m, xx, xy_sym, k0), bounds = _congruent(grams(), C)
            indptr, indices, values = _union((xx, xy_sym, k0))
            band = _band_order(indptr, indices, m)
            # in the order of PartMap.residue: K0, S, Kxx, M
            residue = tuple(up(r + _MAP_GAMMA * g) for r, g in bounds[::-1])
            part_map = _in_order(m, indptr, indices, values, band, residue)
            halves.append((part_map, C[:, band.perm]))
        return replace(self, halves=tuple(halves), layout=tuple(parts))

    def mapped(self, triangle: TriangleShape) -> DiscreteOperators:
        """The pencil of ``triangle`` on T_ref (module docstring), on the
        reference space: A = K0 - c S + kappa Kxx, kappa's float 0 on the
        unit circle, and M the reference M itself, with the parts this map
        carries (:meth:`parts`).

        Every matrix a map returns is stored on the index arrays of the
        reference pattern it is mapped from, which it shares with the map
        and never writes (:func:`on_pattern`): only a matrix with an entry
        that vanishes on ``triangle`` gets arrays of its own
        (:meth:`_csr`).  So a point allocates A's values alone.
        """
        shear = triangle.shear
        return DiscreteOperators(
            self.space,
            A=self._csr(self._stiffness(shear.c, shear.kappa.mid)),
            M=self.M,
            halves=self.parts(triangle),
        )

    def parts(self, triangle: TriangleShape) -> tuple[Half, ...]:
        """Each part this map carries, mapped to ``triangle`` as the whole
        space is (A on its part map's whole pattern, M the part's reference
        M), with the band width, slots and residue of its map.

        A map with a part that leaves out a parity needs a triangle on the
        unit circle, kappa = 0 exactly: only there is the pencil K0 - c S,
        which the mirror maps onto itself.  A map with the invariant part
        needs T(pi/3), the one triangle the rotation maps onto itself.
        """
        shear = triangle.shear
        split = any(C.shape[1] < self.dim for _, C in self.halves)
        apex = f"apex ({triangle.bx}, {triangle.by})"
        if split and not shear.kappa.lo == shear.kappa.hi == 0.0:
            raise ValueError(f"{apex} is off the unit circle; the mirror needs T(theta)")
        if any(INVARIANT in part for part in self.layout) and abs(shear.c - 0.5) > 1e-12:
            raise ValueError(f"{apex} is not equilateral; the rotation needs T(pi/3)")
        kappa = shear.kappa.mid
        return tuple(
            Half(
                on_pattern(ref._pattern, ref._stiffness(shear.c, kappa)),
                ref.M, C, ref.band.width, ref.slots, ref.bounds(shear),
            )
            for ref, C in self.halves
        )

    def stiffness_grams(self) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
        """K0, S and Kxx as matrices on the union pattern, sharing the
        map's arrays: the reference grams whose forms certify a conforming
        vector (:func:`eigsolve.rayleigh_bound`)."""
        return tuple(on_pattern(self._pattern, v) for v in (self.k0, self.xy_sym, self.xx))

    def _csr(self, vals: np.ndarray) -> sp.csr_matrix:
        """The matrix with ``vals`` on the union pattern, exact zeros dropped
        as the sparse algebra drops them: it shares the pattern's index
        arrays unless it has such a zero."""
        return _kept(on_pattern(self._pattern, vals), vals != 0.0)


def _union(grams) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The union (indptr, indices) of the patterns of ``grams``, each in
    canonical CSR form, with the values of each gram on it, 0 where the
    gram has no entry.  The index arrays are read-only: every matrix
    mapped on the union shares them."""
    # gram g marks its entries with bit g, so that the entries of the
    # union that carry bit g are those of gram g, both in canonical order
    union = sum(
        sp.csr_matrix((np.full(K.nnz, 2.0**g), K.indices, K.indptr), K.shape)
        for g, K in enumerate(grams)
    )
    carries = union.data.astype(np.int64)
    values = []
    for g, K in enumerate(grams):
        vals = np.zeros(union.nnz)
        vals[(carries & (1 << g)) != 0] = K.data
        values.append(vals)
    for index in (union.indptr, union.indices):
        index.flags.writeable = False
    return union.indptr, union.indices, values


def _band_order(indptr: np.ndarray, indices: np.ndarray, M: sp.csr_matrix) -> BandOrder:
    """The band order (:meth:`BandOrder.of`) of the union pattern
    (``indptr``, ``indices``) and that of M, which hold the pattern of the
    pencil of any triangle."""
    n = indptr.size - 1
    union = sp.csr_matrix((np.ones(indices.size), indices, indptr), (n, n))
    return BandOrder.of((union + abs(M)).tocsr())


def _in_order(M, indptr, indices, values, band: BandOrder, residue) -> PartMap:
    """The part map of M and the values (Kxx, S, K0) on the pattern
    (``indptr``, ``indices``) with its unknowns in the order ``band``, the
    band slots of its A and M patterns, and ``residue``
    (:class:`PartMap`)."""
    p_indptr, p_indices, take = _permuted(indptr, indices, band.perm)
    m_indptr, m_indices, m_take = _permuted(M.indptr, M.indices, band.perm)
    # shared by the matrices of every mapped half
    for index in (p_indptr, p_indices, m_indptr, m_indices):
        index.flags.writeable = False
    M = sp.csr_matrix((M.data[m_take], m_indices, m_indptr), M.shape)
    slots = (
        _band_slots(p_indptr, p_indices, band.width),
        _band_slots(m_indptr, m_indices, band.width),
    )
    xx, xy_sym, k0 = (v[take] for v in values)
    return PartMap(M, p_indptr, p_indices, xx, xy_sym, k0, band, slots, residue)


def on_pattern(K: sp.csr_matrix, values: np.ndarray) -> sp.csr_matrix:
    """The matrix with ``values`` on the pattern of K, whose index arrays
    it shares.

    It is a shallow copy of K with its values replaced, which skips the
    constructor's check of a pattern that was checked when K was made:
    3 us a matrix against 16 us on a CG 32 edge-mean space (2-vCPU VM),
    where a product with the matrix takes 6 us, and a point maps or
    forms about twenty."""
    out = copy.copy(K)
    out.data = values
    return out


def _kept(K: sp.csr_matrix, keep: np.ndarray) -> sp.csr_matrix:
    """K with only its entries where ``keep`` holds, in their order: a
    copy of K (:func:`on_pattern`) with its arrays cut, since a subset of
    a checked pattern, in order, needs no check.  It took 30 to 65 us
    less a matrix than the constructor on the CG 32 grams (cold caches,
    2-vCPU VM)."""
    if keep.all():
        return K
    kept = np.zeros(keep.size + 1, dtype=K.indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    out = on_pattern(K, K.data[keep])
    out.indices, out.indptr = K.indices[keep], kept[K.indptr]
    return out


def _congruent(
    grams: list[sp.csr_matrix], C: sp.csr_matrix
) -> tuple[list[sp.csr_matrix], list[tuple[float, float]]]:
    """C^T K C in canonical CSR form, less its cancellation residue, for
    each K of ``grams``, with a pair (residue, magnitude) of bounds for
    each.

    Where the columns of C combine entries of K that are equal in exact
    arithmetic but were rounded apart in assembly, an entry that vanishes
    exactly is left as a residue of a few ulps of the sum of the
    magnitudes of its terms: up to 30 eps on the CG 96 edge-mean half and
    60 eps on CG 192, while every other entry is at least 2 % of that sum.
    Entries below sqrt(eps) of it are dropped, so that a half's pattern is
    that of its exact pencil.

    magnitude is ||B||_inf + ||B||_1 of the magnitudes B = |C^T| |K| |C|
    of the terms, and residue the same norms of |dropped| + gamma_k B,
    which majorises the exact C^T K C less the stored matrix entry by
    entry, each entry being rounded over two sparse products of at most
    k / 2 terms each.  The sum of the two norms bounds the 2-norm of the
    symmetric matrix :mod:`eigsolve` packs from the upper triangle.
    """
    Ct = C.T.tocsr()
    abs_Ct, abs_C = abs(Ct), abs(C)
    k = 2 * _max_col_nnz(C) + 2
    congruent, bounds = [], []
    for K in grams:
        H = Ct @ K @ C
        H.sort_indices()
        # the sum of the magnitudes of the terms of each entry of H: the
        # pattern of this product holds that of H
        terms = abs_Ct @ abs(K) @ abs_C
        terms.sort_indices()
        bound = terms.multiply(sp.csr_matrix((np.ones(H.nnz), H.indices, H.indptr), H.shape))
        keep = np.abs(H.data) > _SQRT_EPS * bound.data
        congruent.append(_kept(H, keep))
        magnitude = _norm_sum(terms)
        bounds.append((up(_norm_sum(_kept(H, ~keep)) + gamma(k) * magnitude), magnitude))
    return congruent, bounds


def _splits_exactly(indptr, indices, k0, s, P, Q) -> bool:
    """Whether P^T X Q vanishes exactly on the stored floats for X =
    fl(k0 - fl(c s)) on (``indptr``, ``indices``) and every float c: the
    stiffness of T_c (:meth:`ReferenceMap.mapped`), or with s = 0 a
    fixed matrix.  Entries of one pair (k0, s), class v with 0/1 matrix
    L_v, round alike: x_v = k0 - c s where s = 0, or k0 = 0 and s is a
    power of two; x_v = k0 fl(1 - c) where k0 = s is one.  So it holds if
    every other class has P^T L_v Q = 0 and the first kind's P^T L_v Q
    sum to zero weighted by k0 and by s, the second's by k0.  The bases'
    entries are small dyadics (:func:`_orbit_basis`), so each P^T L_v Q
    is exact in floating point; the weighted sums are rational.  Takes 2
    ms on CR 32, 6 to 12 ms on CR 64 (2-vCPU VM)."""
    keys, classes = np.unique(k0 + 1j * s, return_inverse=True)  # exact pairs
    classes = classes.ravel()
    # each entry (i, j) of class v times row j of Q lands in column
    # v * width + b of Y, so that block v of P^T Y is P^T L_v Q
    width = Q.shape[1]
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    counts = np.diff(Q.indptr)[indices]
    at = np.repeat(Q.indptr[indices] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    Y = sp.csr_matrix(
        (Q.data[at], (np.repeat(rows, counts), np.repeat(classes, counts) * width + Q.indices[at])),
        shape=(indptr.size - 1, keys.size * width),
    )
    B = (P.T.tocsr() @ Y).tocoo()
    coupled = B.data != 0.0
    v, b = np.divmod(B.col[coupled], width)
    kv, sv = keys.real[v], keys.imag[v]
    exact = (sv == 0.0) | ((kv == 0.0) & _power_of_two(sv))
    scaled = (kv == sv) & _power_of_two(kv)
    if not (exact | scaled).all():
        return False
    sums = {}
    for row, col, k, t, w, first_kind in zip(B.row[coupled], b, kv, sv, B.data[coupled], exact):
        acc = sums.setdefault((row, col), [Fraction(0)] * 3)
        w = Fraction(w)
        if first_kind:
            acc[0] += Fraction(k) * w
            acc[1] += Fraction(t) * w
        else:
            acc[2] += Fraction(k) * w
    return not any(any(acc) for acc in sums.values())


def _power_of_two(v: np.ndarray) -> np.ndarray:
    """Where the entries of v are plus or minus a power of two."""
    return (v != 0.0) & (np.frexp(np.abs(v))[0] == 0.5)


def _max_col_nnz(C: sp.csr_matrix) -> int:
    return int(np.bincount(C.indices, minlength=C.shape[1]).max(initial=0))


def _norm_sum(K: sp.csr_matrix) -> float:
    """||K||_inf + ||K||_1, rounded up over the sums of its entries."""
    a = abs(K)
    sums = sum(float(np.asarray(a.sum(axis=ax)).max(initial=0.0)) for ax in (0, 1))
    return up(sums * (1.0 + gamma(max(K.shape) + 2)))


def assemble(space: FemSpace) -> DiscreteOperators:
    """Assemble reduced stiffness, mass and partial-derivative grams.

    Notes
    -----
    With CCW vertices p0, p1, p2 and e_k the edge opposite vertex k,
    grad lambda_k = rot(e_k) / (2 area) with rot(x, y) = (y, -x).  The
    CR basis on the edge opposite vertex k is psi_k = 1 - 2 lambda_k,
    so its gradient grams are 4 times the P1 ones with edge indexing,
    and its mass matrix is exactly (area/3) I.
    """
    mesh = space.mesh
    v = mesh.nodes[mesh.elements]                      # (ne, 3, 2)
    e = v[:, [1, 2, 0], :] - v[:, [2, 0, 1], :]        # e[:, k] = p_{k+1} - p_{k+2}
    area2 = e[:, 1, 0] * e[:, 2, 1] - e[:, 1, 1] * e[:, 2, 0]
    if np.any(area2 <= 0.0):
        raise AssertionError("element orientation must be counterclockwise")
    grads = np.stack([e[..., 1], -e[..., 0]], axis=-1) / area2[:, None, None]
    area = 0.5 * area2

    gx = grads[..., 0]
    gy = grads[..., 1]
    w = area[:, None, None]
    if space.family == "cg":
        conn = mesh.elements
        mass_loc = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
    else:
        conn = mesh.element_edges
        mass_loc = (area[:, None, None] / 3.0) * np.eye(3)

    rows = np.repeat(conn, 3, axis=1).ravel()
    cols = np.tile(conn, (1, 3)).ravel()
    shape = (space.full_dim, space.full_dim)

    def build(loc):
        # the zero entries of the element matrices (all off-diagonal ones of
        # the CR mass) are not stored: every product and quadratic form
        # would walk them, and each stored entry of a row widens the
        # running-error bounds of eigsolve
        K = space.reduce(sp.coo_matrix((loc.ravel(), (rows, cols)), shape=shape).tocsr())
        K.eliminate_zeros()
        return K

    # one local array at a time, so that only one is alive with its
    # triplet expansion: this sets the memory peak of the assembly
    def gram(a, b):
        loc = w * np.einsum("ek,el->ekl", a, b)
        return build(loc if space.family == "cg" else 4.0 * loc)

    Kxx, Kyy = gram(gx, gx), gram(gy, gy)
    return DiscreteOperators(
        space, A=Kxx + Kyy, M=build(mass_loc), Kxx=Kxx, Kxy=gram(gx, gy), Kyy=Kyy
    )
