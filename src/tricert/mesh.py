"""Uniform triangulation of a single triangle.

The n-fold uniform subdivision places lattice nodes P(i, j) =
(i/n) A + (j/n) B for i + j <= n over the parent T = conv(O, A, B) and
splits each lattice cell into an upward and a downward copy of T / n.
All cells are congruent, element areas are area(T) / n^2 and the longest
mesh edge is (longest parent side) / n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import TriangleShape


@dataclass(frozen=True)
class Mesh:
    """Triangulation produced by :func:`uniform_subdivide`.

    Attributes
    ----------
    triangle : parent TriangleShape.
    n : subdivision count per side.
    lattice : (n_nodes, 2) int array of (i, j) lattice coordinates,
        row-lexicographic in (j, i), base row j = 0 first.
    elements : (n_elem, 3) int array, counterclockwise vertex triples.
    edges : (n_edges, 2) int array, each row sorted, rows in
        lexicographic order; this ordering is the CR dof numbering.
    element_edges : (n_elem, 3) int array, entry k is the edge opposite
        local vertex k.
    edge_side : (n_edges,) int8 array, -1 for interior edges, otherwise
        the parent side index: 0 = OA, 1 = AB, 2 = OB.
    """

    triangle: TriangleShape
    n: int
    lattice: np.ndarray = field(repr=False)
    elements: np.ndarray = field(repr=False)
    edges: np.ndarray = field(repr=False)
    element_edges: np.ndarray = field(repr=False)
    edge_side: np.ndarray = field(repr=False)

    @property
    def nodes(self) -> np.ndarray:
        """(n_nodes, 2) float coordinates (i A + j B) / n, in lattice order.

        Computed on each access from the lattice and the parent, so a
        mesh carried to another triangle needs only its triangle swapped.
        """
        a, b = self.triangle.vertices[1:]
        return (self.lattice[:, 0:1] * a + self.lattice[:, 1:2] * b) / self.n

    @property
    def n_nodes(self) -> int:
        return self.lattice.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def h(self) -> float:
        """Longest mesh edge: longest parent side over n."""
        v = self.triangle.vertices
        sides = (v[1] - v[0], v[2] - v[0], v[2] - v[1])
        return max(float(np.hypot(s[0], s[1])) for s in sides) / self.n

    def boundary_node_mask(self) -> np.ndarray:
        i = self.lattice[:, 0]
        j = self.lattice[:, 1]
        return (j == 0) | (i == 0) | (i + j == self.n)

    def side_nodes(self, side: int) -> np.ndarray:
        """Node indices along a parent side, ordered from its first vertex.

        Side 0 runs O -> A, side 1 runs A -> B, side 2 runs O -> B.
        Corner nodes belong to both adjacent sides.
        """
        i = self.lattice[:, 0]
        j = self.lattice[:, 1]
        if side == 0:
            sel = np.nonzero(j == 0)[0]
            return sel[np.argsort(i[sel])]
        if side == 1:
            sel = np.nonzero(i + j == self.n)[0]
            return sel[np.argsort(j[sel])]
        if side == 2:
            sel = np.nonzero(i == 0)[0]
            return sel[np.argsort(j[sel])]
        raise ValueError(f"side must be 0, 1 or 2, got {side}")

    def side_edges(self, side: int) -> np.ndarray:
        """Edge indices on a parent side, ordered along the side."""
        nodes = self.side_nodes(side)
        sel = np.nonzero(self.edge_side == side)[0]
        # order sub-edges by the position of their first endpoint on the side
        pos = {int(nd): k for k, nd in enumerate(nodes)}
        key = [min(pos[int(a)], pos[int(b)]) for a, b in self.edges[sel]]
        return sel[np.argsort(key, kind="stable")]


def uniform_subdivide(triangle: TriangleShape, n: int) -> Mesh:
    """Uniformly subdivide ``triangle`` into n^2 congruent cells.

    Parameters
    ----------
    triangle : parent shape.
    n : subdivisions per side, n >= 1.

    Returns
    -------
    Mesh with n^2 elements, (n+1)(n+2)/2 nodes and 3n(n+1)/2 edges.

    Notes
    -----
    Element vertex orderings are chosen so that the downward cells are
    point reflections of the upward ones vertex-by-vertex: up cells are
    (P(i,j), P(i+1,j), P(i,j+1)) and down cells
    (P(i+1,j+1), P(i,j+1), P(i+1,j)).  Local vertex k then sees the same
    pair of edge vectors up to global sign in every element, which keeps
    all local stiffness blocks identical and both orientations
    counterclockwise.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")

    def idx(i, j):
        return j * (n + 1) - (j * (j - 1)) // 2 + i

    n_nodes = (n + 1) * (n + 2) // 2
    lattice = np.empty((n_nodes, 2), dtype=np.int32)
    for j in range(n + 1):
        for i in range(n + 1 - j):
            k = idx(i, j)
            lattice[k, 0] = i
            lattice[k, 1] = j

    tris = []
    for j in range(n):
        for i in range(n - j):
            tris.append((idx(i, j), idx(i + 1, j), idx(i, j + 1)))
            if i + j <= n - 2:
                tris.append((idx(i + 1, j + 1), idx(i, j + 1), idx(i + 1, j)))
    elements = np.array(tris, dtype=np.int32)

    # edge k of an element is the one opposite local vertex k
    pairs = np.concatenate(
        [
            elements[:, [1, 2]],
            elements[:, [2, 0]],
            elements[:, [0, 1]],
        ]
    )
    pairs.sort(axis=1)
    keys = pairs[:, 0].astype(np.int64) * n_nodes + pairs[:, 1]
    uniq, inverse = np.unique(keys, return_inverse=True)
    edges = np.column_stack([uniq // n_nodes, uniq % n_nodes]).astype(np.int32)
    element_edges = inverse.reshape(3, -1).T.astype(np.int32)

    li = lattice[:, 0]
    lj = lattice[:, 1]
    ea, eb = edges[:, 0], edges[:, 1]
    edge_side = np.full(edges.shape[0], -1, dtype=np.int8)
    edge_side[(lj[ea] == 0) & (lj[eb] == 0)] = 0
    on1 = (li + lj == n)
    edge_side[on1[ea] & on1[eb]] = 1
    edge_side[(li[ea] == 0) & (li[eb] == 0)] = 2

    return Mesh(triangle, n, lattice, elements, edges, element_edges, edge_side)
