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

Every triangle with base (0,0)-(1,0) and apex (bx, by) is the image of
the reference triangle T_ref = conv((0,0), (1,0), (0,1)) under
J = [[1, bx], [0, by]], and the n-fold uniform mesh of T is the image of
the n-fold mesh of T_ref node by node.  Basis functions therefore pull
back to basis functions with the same numbering, the constraints
(Dirichlet dofs, edge-mean weights) do not depend on the apex, and
for u on T with pull-back U(X, Y) on T_ref, u_x = U_X,
u_y = (U_Y - bx U_X) / by and dx dy = by dX dY give

    Kxx = by Kxx_ref
    Kxy = Kxy_ref - bx Kxx_ref
    Kyy = (bx^2 Kxx_ref - bx (Kxy_ref + Kxy_ref^T) + Kyy_ref) / by
    A   = Kxx + Kyy
    M   = by M_ref

for the full operators, and for the reduced ones too, since reduction
(a principal submatrix, or a congruence with Z) does not depend on the
apex.  :class:`ReferenceMap` applies these identities, so one assembly
per mesh size serves every angle.

Every T(theta) is isosceles, its sides from the origin both of length
1, and the lattice swap (i, j) -> (j, i) of T_ref (:func:`mirror`) is its
reflection.  Each space is the direct sum of its mirror-symmetric and
antisymmetric halves (:func:`parity_bases`), and on T(theta) the pencil
(A, M) splits with it.  :meth:`ReferenceMap.with_halves` keeps the
reference grams of parts of the space, each spanned by the bases of one
or both parities, which map by the same identities: a half serves
T(theta), and the whole space, spanned by both bases side by side, any
triangle, since the bases are combinatorial bases of the lattice's
spaces.  An edge-mean space keeps its slave basis Z, but its parts are
spanned by local differences along each parent side, which keep a part's
pencil as sparse as the lattice, where Z couples every dof of a side.

The sparsity pattern of A and M does not depend on the apex either, so a
symmetric ordering of a part's unknowns that packs its pencil into a
narrow band (:class:`BandOrder`) is computed once, on its reference
operators, and serves every apex: each part is stored in that order, so
every operator mapped from it is banded as it stands.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from .geometry import TriangleShape
from .mesh import Mesh
from .rounding import dn

_SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))

FAMILIES = ("cg", "cr")
BCS = ("dirichlet", "edge-mean")


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
    mesh = space.mesh
    i = mesh.lattice[:, 0].astype(np.int64)
    j = mesh.lattice[:, 1].astype(np.int64)
    # ascending, since the lattice is row-lexicographic in (j, i)
    keys = j * (mesh.n + 1) + i
    nodes = np.searchsorted(keys, i * (mesh.n + 1) + j)
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
    where p(k) = k) and e_k - e_p(k) (antisymmetric).  The Dirichlet dofs
    are a union of orbits, so each Dirichlet half is spanned by its
    orbits.  Under the mirror the edge-mean constraint of side 2 is that
    of side 0, and that of side 1 is itself, so on symmetric vectors sides
    0 and 2 give one constraint and side 1 another, while on antisymmetric
    ones side 1 holds by itself and side 2 follows from side 0.  Each
    edge-mean half is spanned by local differences of its orbits along
    each side (:func:`_side_differences`), not through the space's slave
    basis Z, whose side means couple every dof of a side.  Every column
    lifts to a vector that meets all three constraints, so the two halves
    split the space and, for the mapped operators of T(theta), its pencil.
    """
    p = mirror(space)
    n = space.full_dim
    if space.free is not None:
        kept = np.zeros(n, dtype=bool)
        kept[space.free] = True
        reduced = space.free
    else:
        kept = np.ones(n, dtype=bool)
        constraints = _edge_mean_constraints(space.mesh, space.family)
        reduced = _masters(constraints, n)
    bases = []
    for sign, sides in ((1.0, (0, 1)), (-1.0, (0,))):
        # one column per orbit of kept dofs, led by its smaller dof; a dof
        # the mirror fixes has no antisymmetric part
        lead = np.flatnonzero(kept & (np.arange(n) <= p))
        if sign < 0.0:
            lead = lead[p[lead] != lead]
        pair = np.flatnonzero(p[lead] != lead)
        rows = np.concatenate([lead, p[lead[pair]]])
        cols = np.concatenate([np.arange(lead.size), pair])
        vals = np.concatenate([np.ones(lead.size), np.full(pair.size, sign)])
        S = sp.csr_matrix((vals, (rows, cols)), shape=(n, lead.size))
        if space.Z is not None:
            S = S @ _side_differences([constraints[s][:2] for s in sides], S)
        bases.append(S.tocsr()[reduced])
    return bases[0], bases[1]


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

    A is the stiffness Kxx + Kyy, M the mass matrix, and Kxx, Kxy, Kyy
    the partial-derivative grams.  Kxy is stored as assembled (row index
    differentiates in x, column in y); only its quadratic form is used.
    Assembled operators carry the grams; mapped ones leave them out
    (:meth:`ReferenceMap.grams` maps them where they are read).
    ``halves`` are the parts (:class:`Half`) the solvers work in; mapped
    operators carry them, and assembled ones, which carry none, the
    solvers refuse.
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
        """
        tri = self.space.mesh.triangle
        n = self.space.mesh.n
        area_low = dn(dn(0.5 * tri.by, 2) / (n * n), 2)
        return area_low / 12.0 if self.space.family == "cg" else dn(area_low / 3.0)


@dataclass(frozen=True)
class Half:
    """One part of a space's pencil: a mirror-parity half on T(theta), or
    the whole space, spanned by both parity bases, on any triangle.

    A and M act on part coordinates, and C (the bases of
    :func:`parity_bases` of the part's parities, side by side) lifts them
    to the space's reduced coordinates: A = C^T A_space C, and likewise
    M.  The coordinates are in the band order of the part's map
    (:meth:`ReferenceMap.with_halves`), so no entry of A or M lies more
    than ``width`` off the diagonal, and ``slots`` holds the
    :func:`_band_slots` of A and of M, where the solvers pack A - sigma M
    for its banded Cholesky factor.  Both are fixed on the reference
    patterns A and M are stored on: A keeps an entry that vanishes at
    this apex as an explicit zero, which changes no product.
    """

    A: sp.csr_matrix
    M: sp.csr_matrix
    C: sp.csr_matrix
    width: int
    slots: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class ReferenceMap:
    """Operators assembled on T_ref, kept in the form that carries them to
    any triangle entry by entry.

    xx, xy, xy_sym and yy hold Kxx, Kxy, Kxy + Kxy^T and Kyy as value
    arrays on the union of the sparsity patterns of Kxx, Kxy, Kxy^T and
    Kyy (``indptr``, ``indices``, canonical CSR order), 0 where a matrix
    has no entry.  The reference A and grams are not kept as matrices:
    the map reads none of them, and the cache of one map per reference
    space would hold them for the life of the process.  ``halves`` holds
    a (map, basis) pair for each part the map carries.  A part's map is
    stored in the order ``band``, which takes its k-th unknown from column
    ``band.perm[k]`` of the parity bases, and holds in ``slots`` the band
    positions its mapped :class:`Half` carries (:meth:`with_halves`).
    """

    space: FemSpace
    M: sp.csr_matrix
    indptr: np.ndarray
    indices: np.ndarray
    xx: np.ndarray
    xy: np.ndarray
    xy_sym: np.ndarray
    yy: np.ndarray
    halves: tuple[tuple["ReferenceMap", sp.csr_matrix], ...] = ()
    band: BandOrder | None = None
    slots: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    @classmethod
    def of(cls, ops: DiscreteOperators) -> "ReferenceMap":
        """The map of ``ops``, whose grams must be in canonical CSR form,
        as :func:`assemble` leaves them."""
        ref = ops.space.mesh.triangle
        if (ref.bx, ref.by) != (0.0, 1.0):
            raise ValueError(
                f"operators must be assembled on the reference triangle, apex ({ref.bx}, {ref.by})"
            )
        return cls._of_grams(ops.space, ops.M, ops.Kxx, ops.Kxy, ops.Kyy)

    @classmethod
    def _of_grams(cls, space, M, Kxx, Kxy, Kyy) -> "ReferenceMap":
        grams = (Kxx, Kxy, Kxy.T.tocsr(), Kyy)
        # gram g marks its entries with bit g, so that the entries of the
        # union that carry bit g are those of gram g, both in canonical order
        union = sum(
            sp.csr_matrix((np.full(K.nnz, 2.0**g), K.indices, K.indptr), K.shape)
            for g, K in enumerate(grams)
        )
        carries = union.data.astype(np.int64)

        def scatter(g, K):
            vals = np.zeros(union.nnz)
            vals[(carries & (1 << g)) != 0] = K.data
            return vals

        xx, xy, yx, yy = (scatter(g, K) for g, K in enumerate(grams))
        # shared by every mapped matrix that stores the whole pattern
        union.indptr.flags.writeable = union.indices.flags.writeable = False
        return cls(space, M, union.indptr, union.indices, xx, xy, xy + yx, yy)

    def with_halves(self, parts: tuple[tuple[int, ...], ...]) -> "ReferenceMap":
        """This map carrying one part for each of ``parts``, in that order,
        each a group of parities: the symmetric (0) or antisymmetric (1)
        half, or with (0, 1) the whole space.  A part is spanned by the
        bases of its parities side by side, C = [C+ C-] for the whole
        space, and its map holds C^T K C for every reference gram K, less
        its cancellation residue (:func:`_congruent`).  Each part is then
        stored in its band order (:meth:`band_order`): its grams, its M
        and the columns of C are permuted once for every angle, and its
        map gets the band slots of its A and M patterns, so that no solve
        permutes a vector or a matrix.

        The parity bases are bases of the lattice's spaces, which need no
        mirror, so the whole part serves any triangle; a half serves only
        T(theta), where the pencil splits (:meth:`mapped`).
        """
        bases = parity_bases(self.space)
        grams = [self.M, *(self._csr(v) for v in (self.xx, self.xy, self.yy))]
        halves = []
        for C in (sp.hstack([bases[p] for p in part], format="csr") for part in parts):
            half = ReferenceMap._of_grams(self.space, *_congruent(grams, C))
            band = half.band_order()
            halves.append((half._in_order(band), C[:, band.perm]))
        return replace(self, halves=tuple(halves))

    def _in_order(self, band: BandOrder) -> "ReferenceMap":
        """This map with its unknowns in the order ``band``, and the band
        slots of its A and M patterns."""
        indptr, indices, take = _permuted(self.indptr, self.indices, band.perm)
        indptr.flags.writeable = indices.flags.writeable = False
        m_indptr, m_indices, m_take = _permuted(self.M.indptr, self.M.indices, band.perm)
        M = sp.csr_matrix((self.M.data[m_take], m_indices, m_indptr), self.M.shape)
        slots = (
            _band_slots(indptr, indices, band.width),
            _band_slots(m_indptr, m_indices, band.width),
        )
        values = {name: getattr(self, name)[take] for name in ("xx", "xy", "xy_sym", "yy")}
        return replace(self, M=M, indptr=indptr, indices=indices, band=band, slots=slots, **values)

    def band_order(self) -> BandOrder:
        """The band order (:meth:`BandOrder.of`) of the pattern of A and M,
        which holds the pattern of the operators mapped to any triangle."""
        n = self.dim
        union = sp.csr_matrix((np.ones(self.indices.size), self.indices, self.indptr), (n, n))
        return BandOrder.of((union + abs(self.M)).tocsr())

    def mapped(self, triangle: TriangleShape) -> DiscreteOperators:
        """The operators A and M on ``triangle``, by the reference-map
        identities of the module docstring, with each part this map
        carries mapped alike (A on its map's whole pattern), each carrying
        the band width and slots of its map.  The grams, which only a
        point's derivative functional reads, are left out: :meth:`grams`
        maps them.

        The returned space holds the mesh of ``triangle``: the reference
        mesh with its triangle swapped.  A map with a part that leaves out
        a parity needs a T(theta), apex on the unit circle: only there
        does the mirror map the triangle onto itself, so that the pencil
        splits into its halves.
        """
        bx, by = triangle.bx, triangle.by
        split = any(C.shape[1] < self.dim for _, C in self.halves)
        if split and abs(bx * bx + by * by - 1.0) > 1e-12:
            raise ValueError(f"apex ({bx}, {by}) is off the unit circle; the mirror needs T(theta)")
        space = replace(self.space, mesh=replace(self.space.mesh, triangle=triangle))
        return DiscreteOperators(
            space,
            A=self._csr(self._stiffness(bx, by)),
            M=by * self.M,
            halves=tuple(
                Half(
                    sp.csr_matrix((ref._stiffness(bx, by), ref.indices, ref.indptr), ref.M.shape),
                    by * ref.M, C, ref.band.width, ref.slots,
                )
                for ref, C in self.halves
            ),
        )

    def grams(self, triangle: TriangleShape) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
        """Kxx, Kxy and Kyy on ``triangle``, by the identities of the module
        docstring, as :func:`assemble` would store them."""
        bx, by = triangle.bx, triangle.by
        return (
            self._csr(by * self.xx), self._csr(self.xy - bx * self.xx), self._csr(self._kyy(bx, by))
        )

    def _kyy(self, bx: float, by: float) -> np.ndarray:
        """The values of Kyy on the union pattern."""
        # Kyy of the module docstring entry by entry, evaluated in place to
        # spare temporaries of the pattern's size; scipy divides a sparse
        # matrix by a scalar as a product with its reciprocal, so "* (1 /
        # by)" keeps every stored value equal to the sparse-matrix form
        kyy = (bx * bx) * self.xx
        kyy -= np.multiply(self.xy_sym, bx)
        kyy += self.yy
        kyy *= 1.0 / by
        return kyy

    def _stiffness(self, bx: float, by: float) -> np.ndarray:
        """The values of A = Kxx + Kyy on the union pattern."""
        stiff = self._kyy(bx, by)
        stiff += np.multiply(self.xx, by)
        return stiff

    def _csr(self, vals: np.ndarray) -> sp.csr_matrix:
        """The matrix with ``vals`` on the union pattern, exact zeros dropped
        as the sparse algebra drops them."""
        n = self.indptr.size - 1
        return _kept(sp.csr_matrix((vals, self.indices, self.indptr), shape=(n, n)), vals != 0.0)


def _kept(K: sp.csr_matrix, keep: np.ndarray) -> sp.csr_matrix:
    """K with only its entries where ``keep`` holds, in their order."""
    if keep.all():
        return K
    kept = np.zeros(keep.size + 1, dtype=K.indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    return sp.csr_matrix((K.data[keep], K.indices[keep], kept[K.indptr]), shape=K.shape)


def _congruent(grams: list[sp.csr_matrix], C: sp.csr_matrix) -> list[sp.csr_matrix]:
    """C^T K C in canonical CSR form, less its cancellation residue, for
    each K of ``grams``.

    Where the columns of C combine entries of K that are equal in exact
    arithmetic but were rounded apart in assembly, an entry that vanishes
    exactly is left as a residue of a few ulps of the sum of the
    magnitudes of its terms: up to 30 eps on the CG 96 edge-mean half and
    60 eps on CG 192, while every other entry is at least 2 % of that sum.
    Entries below sqrt(eps) of it are dropped, so that a half's pattern is
    that of its exact pencil.
    """
    Ct = C.T.tocsr()
    abs_Ct, abs_C = abs(Ct), abs(C)
    congruent = []
    for K in grams:
        H = Ct @ K @ C
        H.sort_indices()
        # the sum of the magnitudes of the terms of each entry of H: the
        # pattern of this product holds that of H
        bound = abs_Ct @ abs(K) @ abs_C
        bound.sort_indices()
        bound = bound.multiply(sp.csr_matrix((np.ones(H.nnz), H.indices, H.indptr), H.shape))
        congruent.append(_kept(H, np.abs(H.data) > _SQRT_EPS * bound.data))
    return congruent


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
