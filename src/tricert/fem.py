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
(A, M) splits with it; :meth:`ReferenceMap.with_halves` keeps a half's
reference grams, which map by the same identities.

The sparsity pattern of A and M does not depend on the apex either, so a
symmetric ordering of a half's unknowns that packs its pencil into a
narrow band (:class:`BandOrder`) is computed once, on its reference
operators, and serves every angle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .geometry import TriangleShape
from .mesh import Mesh
from .rounding import dn

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

    Z, _ = _eliminate(_edge_mean_constraints(mesh, family), full_dim)
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


def _eliminate(
    constraints: list[tuple[np.ndarray, np.ndarray, int]], dim: int
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Null-space basis of ``constraints`` on ``dim`` coordinates, and its
    master coordinates.

    Each slave appears in no other constraint, so eliminating each slave
    from its own constraint satisfies all of them at once: the basis is
    the identity on the masters, and a slave's row solves its constraint.
    """
    slaves = sorted(c[2] for c in constraints)
    if len(set(slaves)) != len(slaves):
        raise AssertionError("slave dofs must be distinct")
    masters = np.setdiff1d(np.arange(dim), slaves)
    col_of = {int(m): k for k, m in enumerate(masters)}

    rows = list(masters)
    cols = list(range(masters.size))
    vals = [1.0] * masters.size
    for dofs, w, slave in constraints:
        w_slave = w[dofs == slave][0]
        for d, wv in zip(dofs, w):
            if d != slave:
                rows.append(slave)
                cols.append(col_of[int(d)])
                vals.append(float(-wv / w_slave))
    Z = sp.coo_matrix((vals, (rows, cols)), shape=(dim, masters.size))
    return Z.tocsr(), masters


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

    Each column is e_k + e_p(k) (symmetric; e_k alone where p(k) = k) or
    e_k - e_p(k) (antisymmetric) of one orbit of the mirror p.  The
    Dirichlet dofs are a union of orbits.  Under the mirror the edge-mean
    constraint of side 2 is that of side 0, and that of side 1 is itself,
    so on symmetric vectors sides 0 and 2 give one constraint and side 1
    another, while on antisymmetric ones side 1 holds by itself and side
    2 follows from side 0: each half eliminates its own constraints.  The
    columns lift to vectors that meet every constraint, so the two halves
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
        reduced = _eliminate(constraints, n)[1]
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
            S = S @ _half_nullspace([constraints[s][:2] for s in sides], S)
        bases.append(S.tocsr()[reduced])
    return bases[0], bases[1]


def _half_nullspace(sides: list[tuple[np.ndarray, np.ndarray]], S: sp.csr_matrix) -> sp.csr_matrix:
    """Null-space basis, in the coordinates of S, of the side-mean
    constraints given as (dofs, weights); each slave is the first
    coordinate of its constraint that no other one involves."""
    rows = []
    for dofs, w in sides:
        g = S[dofs].T @ w
        coords = np.flatnonzero(g)
        rows.append((coords, g[coords]))
    involved = np.bincount(np.concatenate([c for c, _ in rows]), minlength=S.shape[1])
    constraints = [(c, g, int(c[involved[c] == 1][0])) for c, g in rows]
    return _eliminate(constraints, S.shape[1])[0]


@dataclass(frozen=True)
class BandOrder:
    """A symmetric ordering of a space's unknowns: unknown ``perm[k]`` is
    the k-th, ``rank`` is the inverse permutation, and every entry (i, j)
    of the pattern it was made for has |rank[i] - rank[j]| <= ``width``."""

    perm: np.ndarray
    rank: np.ndarray
    width: int

    @classmethod
    def of(cls, pattern: sp.csr_matrix) -> "BandOrder":
        """The reverse Cuthill-McKee order of the symmetric ``pattern``."""
        n = pattern.shape[0]
        perm = reverse_cuthill_mckee(pattern, symmetric_mode=True).astype(np.int64)
        rank = np.empty(n, dtype=np.int64)
        rank[perm] = np.arange(n)
        rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
        width = int(np.max(np.abs(rank[rows] - rank[pattern.indices]), initial=0))
        return cls(perm, rank, width)


@dataclass(frozen=True)
class DiscreteOperators:
    """Reduced stiffness/mass family for one space.

    A is the full gradient-gram (stiffness), M the mass matrix, and
    Kxx, Kxy, Kyy the partial-derivative grams, so A = Kxx + Kyy holds
    as an assembly identity.  Kxy is stored as assembled (row index
    differentiates in x, column in y); only its quadratic form is used.
    ``halves`` are mirror-parity halves (:class:`Half`) for the solvers
    to work in; mapped operators carry them, assembled ones none.
    """

    space: FemSpace
    A: sp.csr_matrix
    M: sp.csr_matrix
    Kxx: sp.csr_matrix
    Kxy: sp.csr_matrix
    Kyy: sp.csr_matrix
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
    """One mirror-parity half of a space's pencil on T(theta).

    A and M act on half coordinates, and C (:func:`parity_bases`) lifts
    them to the space's reduced coordinates: A = C^T A_space C, and
    likewise M.  ``band``, if any, is an order that packs A and M into a
    narrow band, for the solvers to factorise in.
    """

    A: sp.csr_matrix
    M: sp.csr_matrix
    C: sp.csr_matrix
    band: BandOrder | None = None

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
    a (map, basis) pair for each half the map carries, and a half's map
    may hold in ``band`` the order its mapped :class:`Half` carries
    (:meth:`band_order`).
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
        n = M.shape[0]
        grams = (Kxx, Kxy, Kxy.T.tocsr(), Kyy)
        union = sum(sp.csr_matrix((np.ones(K.nnz), K.indices, K.indptr), K.shape) for K in grams)
        keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(union.indptr)) * n + union.indices

        def scatter(K):
            vals = np.zeros(union.nnz)
            k_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(K.indptr))
            vals[np.searchsorted(keys, k_rows * n + K.indices)] = K.data
            return vals

        xx, xy, yx, yy = map(scatter, grams)
        # shared by every mapped matrix that stores the whole pattern
        union.indptr.flags.writeable = union.indices.flags.writeable = False
        return cls(space, M, union.indptr, union.indices, xx, xy, xy + yx, yy)

    def with_halves(self, parities: tuple[int, ...]) -> "ReferenceMap":
        """This map carrying the symmetric (parity 0) or antisymmetric (1)
        half of each of ``parities``, in that order: C^T K C for every
        reference gram K, with the half's basis C.
        """
        bases = parity_bases(self.space)
        grams = (self.M, *(self._csr(v) for v in (self.xx, self.xy, self.yy)))
        halves = []
        for C in (bases[p] for p in parities):
            Ct = C.T.tocsr()
            congruent = [(Ct @ K @ C).tocsr() for K in grams]
            for H in congruent:
                H.eliminate_zeros()
                H.sort_indices()
            halves.append((ReferenceMap._of_grams(self.space, *congruent), C))
        return replace(self, halves=tuple(halves))

    def band_order(self) -> BandOrder:
        """The reverse Cuthill-McKee order of the pattern of A and M, which
        holds the pattern of the operators mapped to any triangle."""
        n = self.dim
        union = sp.csr_matrix((np.ones(self.indices.size), self.indices, self.indptr), (n, n))
        return BandOrder.of((union + abs(self.M)).tocsr())

    def mapped(self, triangle: TriangleShape) -> DiscreteOperators:
        """The operators on ``triangle``, by the reference-map identities of
        the module docstring, with each half this map carries mapped alike
        (A and M only), each carrying the band order of its map.

        The returned space holds the mesh of ``triangle``: the reference
        mesh with its triangle swapped.  A map with halves needs a
        T(theta), apex on the unit circle: only there does the mirror map
        the triangle onto itself.
        """
        bx, by = triangle.bx, triangle.by
        if self.halves and abs(bx * bx + by * by - 1.0) > 1e-12:
            raise ValueError(f"apex ({bx}, {by}) is off the unit circle; the mirror needs T(theta)")
        space = replace(self.space, mesh=replace(self.space.mesh, triangle=triangle))
        stiff, kyy = self._stiffness(bx, by)
        return DiscreteOperators(
            space,
            A=self._csr(stiff),
            M=by * self.M,
            Kxx=self._csr(by * self.xx),
            Kxy=self._csr(self.xy - bx * self.xx),
            Kyy=self._csr(kyy),
            halves=tuple(
                Half(ref._csr(ref._stiffness(bx, by)[0]), by * ref.M, C, ref.band)
                for ref, C in self.halves
            ),
        )

    def _stiffness(self, bx: float, by: float) -> tuple[np.ndarray, np.ndarray]:
        """The values of A and Kyy on the union pattern."""
        # Kyy of the module docstring entry by entry, evaluated in place to
        # spare temporaries of the pattern's size; scipy divides a sparse
        # matrix by a scalar as a product with its reciprocal, so "* (1 /
        # by)" keeps every stored value equal to the sparse-matrix form
        kyy = (bx * bx) * self.xx
        stiff = np.multiply(self.xy_sym, bx)
        kyy -= stiff
        kyy += self.yy
        kyy *= 1.0 / by
        np.multiply(self.xx, by, out=stiff)
        stiff += kyy
        return stiff, kyy

    def _csr(self, vals: np.ndarray) -> sp.csr_matrix:
        """The matrix with ``vals`` on the union pattern, exact zeros dropped
        as the sparse algebra drops them."""
        n = self.indptr.size - 1
        keep = vals != 0.0
        if keep.all():
            return sp.csr_matrix((vals, self.indices, self.indptr), shape=(n, n))
        kept = np.zeros(vals.size + 1, dtype=self.indptr.dtype)
        np.cumsum(keep, out=kept[1:])
        return sp.csr_matrix((vals[keep], self.indices[keep], kept[self.indptr]), shape=(n, n))


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
    def gram(spec, a, b):
        loc = w * np.einsum(spec, a, b)
        return build(loc if space.family == "cg" else 4.0 * loc)

    return DiscreteOperators(
        space,
        A=gram("eki,eli->ekl", grads, grads),
        M=build(mass_loc),
        Kxx=gram("ek,el->ekl", gx, gx),
        Kxy=gram("ek,el->ekl", gx, gy),
        Kyy=gram("ek,el->ekl", gy, gy),
    )
