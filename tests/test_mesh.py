"""Uniform triangulation: counts, orientation, incidence, side labeling."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import EQ, mesh_arrays_by_loops
from tricert.geometry import triangle_from_angle
from tricert.mesh import uniform_subdivide

subdivisions = st.integers(min_value=1, max_value=12)
mesh_angles = st.floats(min_value=0.2, max_value=math.pi - 0.2, allow_nan=False)


def make(theta=EQ, n=4):
    return uniform_subdivide(triangle_from_angle(theta), n)


@given(subdivisions, mesh_angles)
def test_entity_counts(n, theta):
    m = make(theta, n)
    assert m.n_nodes == (n + 1) * (n + 2) // 2
    assert m.n_elements == n * n
    assert m.n_edges == 3 * n * (n + 1) // 2


@pytest.mark.parametrize("n", list(range(1, 13)) + [32, 64, 96, 128, 192, 288])
def test_numbering_matches_the_loop_oracle(n):
    # the edge order is the CR dof numbering and the node order the CG one,
    # so every array, with its dtype, must match the entity-by-entity
    # construction exactly: a silent renumbering would change every
    # certificate
    m = make(n=n)
    for name, want in mesh_arrays_by_loops(n).items():
        got = getattr(m, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def test_invalid_subdivision():
    with pytest.raises(ValueError):
        make(n=0)
    with pytest.raises(ValueError):
        make(n=-3)


@given(subdivisions, mesh_angles)
def test_elements_counterclockwise(n, theta):
    m = make(theta, n)
    v = m.nodes[m.elements]
    cross = (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1]) - (
        v[:, 1, 1] - v[:, 0, 1]
    ) * (v[:, 2, 0] - v[:, 0, 0])
    assert np.all(cross > 0.0)


@given(subdivisions, mesh_angles)
def test_element_areas_partition_the_triangle(n, theta):
    m = make(theta, n)
    v = m.nodes[m.elements]
    cross = (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1]) - (
        v[:, 1, 1] - v[:, 0, 1]
    ) * (v[:, 2, 0] - v[:, 0, 0])
    areas = 0.5 * cross
    # congruent pieces of an affine image of the reference subdivision
    assert np.allclose(areas, m.triangle.area / n**2, rtol=1e-12)
    assert math.isclose(float(areas.sum()), m.triangle.area, rel_tol=1e-12)


@given(subdivisions)
def test_edge_element_incidence(n):
    m = make(n=n)
    counts = np.zeros(m.n_edges, dtype=int)
    for row in m.element_edges:
        for e in row:
            counts[e] += 1
    boundary = counts == 1
    assert np.all((counts == 1) | (counts == 2))
    assert int(boundary.sum()) == 3 * n
    # boundary edges are exactly the side-labeled ones
    assert np.array_equal(boundary, m.edge_side >= 0)


@given(subdivisions)
def test_element_edges_oppose_vertices(n):
    m = make(n=n)
    for el, ee in zip(m.elements, m.element_edges):
        for k in range(3):
            endpoints = set(m.edges[ee[k]])
            assert endpoints == {el[(k + 1) % 3], el[(k + 2) % 3]}


@given(subdivisions)
def test_edges_are_sorted_pairs_in_lex_order(n):
    m = make(n=n)
    assert np.all(m.edges[:, 0] < m.edges[:, 1])
    keys = m.edges[:, 0].astype(np.int64) * m.n_nodes + m.edges[:, 1]
    assert np.all(np.diff(keys) > 0)


@given(subdivisions, mesh_angles)
def test_side_nodes_travel_the_sides(n, theta):
    m = make(theta, n)
    tri = m.triangle
    corners = {0: (0, 1), 1: (1, 2), 2: (0, 2)}  # side -> (start, end) vertex
    for side, (a, b) in corners.items():
        idx = m.side_nodes(side)
        assert len(idx) == n + 1
        pts = m.nodes[idx]
        va, vb = tri.vertices[a], tri.vertices[b]
        assert np.allclose(pts[0], va)
        assert np.allclose(pts[-1], vb)
        # equally spaced along the segment
        lam = np.linspace(0.0, 1.0, n + 1)[:, None]
        assert np.allclose(pts, va + lam * (vb - va), atol=1e-12)


@given(subdivisions)
def test_side_edges_ordered_and_complete(n):
    m = make(n=n)
    for side in range(3):
        se = m.side_edges(side)
        assert len(se) == n
        assert np.array_equal(np.sort(se), np.flatnonzero(m.edge_side == side))
        # consecutive edges chain through the side nodes
        chain = m.side_nodes(side)
        for k, e in enumerate(se):
            assert set(m.edges[e]) == {chain[k], chain[k + 1]}


@given(subdivisions, mesh_angles)
def test_boundary_node_mask(n, theta):
    m = make(theta, n)
    mask = m.boundary_node_mask()
    assert int(mask.sum()) == 3 * n
    expected = set()
    for side in range(3):
        expected.update(m.side_nodes(side).tolist())
    assert expected == set(np.flatnonzero(mask).tolist())


@given(subdivisions, mesh_angles)
def test_h_is_longest_element_edge(n, theta):
    m = make(theta, n)
    d = m.nodes[m.edges[:, 0]] - m.nodes[m.edges[:, 1]]
    longest = float(np.max(np.hypot(d[:, 0], d[:, 1])))
    assert math.isclose(m.h, longest, rel_tol=1e-12)
