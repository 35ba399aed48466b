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
apex.  :meth:`DiscreteOperators.mapped` applies
these identities, so one assembly per mesh size serves every angle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

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

    Z = _edge_mean_nullspace(mesh, family, full_dim)
    if Z.shape[1] == 0:
        raise ValueError(
            f"{family}/edge-mean space on n={mesh.n} has dimension 0; refine the mesh"
        )
    return FemSpace(mesh, family, bc, full_dim, int(Z.shape[1]), None, Z)


def _edge_mean_nullspace(mesh: Mesh, family: str, full_dim: int) -> sp.csr_matrix:
    """Null-space basis of the three side-mean constraints.

    Constraint s involves only side-s dofs, and the slave chosen for it
    appears in no other constraint, so eliminating each slave from its
    own constraint satisfies all three simultaneously.  Constant side
    factors are dropped; they do not change the null space.
    """
    constraints: list[tuple[int, np.ndarray, np.ndarray]] = []  # slave, masters, weights
    for s in range(3):
        if family == "cg":
            nd = mesh.side_nodes(s)
            if nd.size < 3:
                # no interior side node available as a slave
                raise ValueError(
                    f"cg/edge-mean needs n >= 2 sub-edges per side, mesh has n={mesh.n}"
                )
            # trapezoid weights, exact for functions linear on each sub-edge
            w = np.ones(nd.size)
            w[0] = w[-1] = 0.5
            slave_pos = 1
            dofs = nd
        else:
            dofs = mesh.side_edges(s)
            if dofs.size < 2:
                raise ValueError(
                    f"cr/edge-mean needs n >= 2 sub-edges per side, mesh has n={mesh.n}"
                )
            w = np.ones(dofs.size)
            slave_pos = 0
        slave = int(dofs[slave_pos])
        mask = np.arange(dofs.size) != slave_pos
        constraints.append((slave, dofs[mask], -w[mask] / w[slave_pos]))

    slaves = sorted(c[0] for c in constraints)
    if len(set(slaves)) != 3:
        raise AssertionError("slave dofs must be distinct")
    masters = np.setdiff1d(np.arange(full_dim), slaves)
    col_of = {int(m): k for k, m in enumerate(masters)}

    rows = list(masters)
    cols = list(range(masters.size))
    vals = [1.0] * masters.size
    for slave, mdofs, mw in constraints:
        for d, wv in zip(mdofs, mw):
            rows.append(slave)
            cols.append(col_of[int(d)])
            vals.append(float(wv))
    Z = sp.coo_matrix((vals, (rows, cols)), shape=(full_dim, masters.size))
    return Z.tocsr()


@dataclass(frozen=True)
class DiscreteOperators:
    """Reduced stiffness/mass family for one space.

    A is the full gradient-gram (stiffness), M the mass matrix, and
    Kxx, Kxy, Kyy the partial-derivative grams, so A = Kxx + Kyy holds
    as an assembly identity.  Kxy is stored as assembled (row index
    differentiates in x, column in y); only its quadratic form is used.
    """

    space: FemSpace
    A: sp.csr_matrix
    M: sp.csr_matrix
    Kxx: sp.csr_matrix
    Kxy: sp.csr_matrix
    Kyy: sp.csr_matrix

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

    def mapped(self, triangle: TriangleShape) -> "DiscreteOperators":
        """These operators, assembled on T_ref, carried to ``triangle``.

        Applies the reference-map identities of the module docstring.
        The returned space holds the mesh of ``triangle``, with node
        coordinates computed exactly as :func:`uniform_subdivide` does.
        """
        mesh = self.space.mesh
        ref = mesh.triangle
        if (ref.bx, ref.by) != (0.0, 1.0):
            raise ValueError(
                f"operators must be assembled on the reference triangle, apex ({ref.bx}, {ref.by})"
            )
        bx, by = triangle.bx, triangle.by
        a, b = triangle.vertices[1:]
        i = mesh.lattice[:, 0:1]
        j = mesh.lattice[:, 1:2]
        nodes = (i * a + j * b) / mesh.n
        space = replace(self.space, mesh=replace(mesh, triangle=triangle, nodes=nodes))

        Kxx, Kxy = self.Kxx, self.Kxy
        kxx = by * Kxx
        kyy = ((bx * bx) * Kxx - bx * (Kxy + Kxy.T) + self.Kyy) / by
        return DiscreteOperators(
            space,
            A=(kxx + kyy).tocsr(),
            M=(by * self.M).tocsr(),
            Kxx=kxx.tocsr(),
            Kxy=(Kxy - bx * Kxx).tocsr(),
            Kyy=kyy.tocsr(),
        )


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
        return space.reduce(sp.coo_matrix((loc.ravel(), (rows, cols)), shape=shape).tocsr())

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
