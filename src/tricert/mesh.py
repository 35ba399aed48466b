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
        sel = np.nonzero(self.edge_side == side)[0]
        # order sub-edges by the position of their first endpoint on the side
        pos = np.empty(self.n_nodes, dtype=np.int64)
        pos[self.side_nodes(side)] = np.arange(self.n + 1)
        key = np.minimum(pos[self.edges[sel, 0]], pos[self.edges[sel, 1]])
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

    n_nodes = (n + 1) * (n + 2) // 2
    # row j holds the n + 1 - j nodes i = 0 .. n - j and starts at node
    # idx(0, j) = j (n + 1) - j (j - 1) / 2
    row = np.arange(n + 1)
    start = row * (n + 1) - row * (row - 1) // 2
    lj = np.repeat(row, n + 1 - row)
    li = np.arange(n_nodes) - start[lj]
    lattice = np.column_stack([li, lj]).astype(np.int32)

    # the edges of node p = (i, j) to higher-numbered nodes, in that order:
    # the horizontal one to (i + 1, j) = node p + 1, the diagonal one to
    # (i - 1, j + 1) = node p + n - j and the vertical one to (i, j + 1) =
    # node p + n - j + 1, so listing them node by node sorts the edges
    node = np.arange(n_nodes)
    inside = li + lj < n
    present = np.column_stack([inside, li >= 1, inside])
    ends = np.column_stack([node + 1, node + n - lj, node + n - lj + 1])
    eid = np.cumsum(present).reshape(n_nodes, 3) - 1   # edge number, where present
    edges = np.column_stack([np.broadcast_to(node[:, None], ends.shape)[present], ends[present]])
    edges = edges.astype(np.int32)
    horizontal, diagonal, vertical = eid.T

    # the cells (i, j), i + j < n, in lattice order, each an up cell
    # followed by its down cell where i + j <= n - 2; edge k of an element
    # is the one opposite local vertex k
    cell = node[inside]
    above = cell + n - lj[inside] + 1        # node (i, j + 1)
    up = np.column_stack([cell, cell + 1, above])
    down = np.column_stack([above + 1, above, cell + 1])
    up_edges = np.column_stack([diagonal[cell + 1], vertical[cell], horizontal[cell]])
    down_edges = np.column_stack([diagonal[cell + 1], vertical[cell + 1], horizontal[above]])
    has_down = np.column_stack([np.ones(cell.size, dtype=bool), li[inside] + lj[inside] <= n - 2])
    elements = np.stack([up, down], axis=1)[has_down].astype(np.int32)
    element_edges = np.stack([up_edges, down_edges], axis=1)[has_down].astype(np.int32)

    # side 0 (j = 0) holds horizontal edges only, side 1 (i + j = n)
    # diagonal ones and side 2 (i = 0) vertical ones
    edge_side = np.full(edges.shape[0], -1, dtype=np.int8)
    edge_side[horizontal[inside & (lj == 0)]] = 0
    edge_side[diagonal[(li >= 1) & ~inside]] = 1
    edge_side[vertical[inside & (li == 0)]] = 2

    return Mesh(triangle, n, lattice, elements, edges, element_edges, edge_side)
