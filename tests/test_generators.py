from fractions import Fraction

import pytest

from eqlabel import generators as gen
from eqlabel.geometry import (
    incidence_graph,
    point_box_incidence,
    point_line_incidence,
)
from eqlabel.graphs import BipartiteGraph, Graph, is_connected
from eqlabel.oracles import has_biclique


def test_path_shapes():
    g = gen.path_graph(5)
    assert (g.n_left, g.n_right, g.m) == (3, 2, 4)
    g = gen.path_graph(2)
    assert g.m == 1


def test_cycle_shapes():
    even = gen.cycle_graph(6)
    assert isinstance(even, BipartiteGraph) and even.m == 6
    odd = gen.cycle_graph(5)
    assert isinstance(odd, Graph) and odd.m == 5


def test_subdivided_star():
    g = gen.subdivided_star(3, 4)
    assert g.n == 13 and g.m == 12
    degs = sorted(len(g.adj[v]) for v in range(g.n))
    assert degs.count(1) == 3 and degs[-1] == 3


def test_biclique_and_half_graph():
    k = gen.biclique(2, 3)
    assert k.m == 6
    h = gen.half_graph(4)
    assert h.m == 6  # pairs i < j
    assert h.has_edge(0, 3) and not h.has_edge(3, 0)


def test_random_bipartite_deterministic():
    a = gen.random_bipartite(5, 5, 0.5, seed=11)
    b = gen.random_bipartite(5, 5, 0.5, seed=11)
    c = gen.random_bipartite(5, 5, 0.5, seed=12)
    assert a == b
    assert a != c


def test_random_connected_is_connected():
    for seed in range(20):
        g = gen.random_connected_bipartite(4, 5, 0.3, seed=seed)
        assert is_connected(g)


def test_random_equivalence_structure():
    g = gen.random_equivalence(8, 7, 3, seed=2)
    # blocks are complete cross products: neighborhoods on each side coincide
    # or are disjoint
    for i in range(g.n_left):
        for k in range(i + 1, g.n_left):
            a, b = set(g.adj_left[i]), set(g.adj_left[k])
            assert a == b or not (a & b)


def test_random_udg_avoids_boundary_pairs():
    r = gen.random_udg(30, box=10, radius=2, seed=5)
    d2 = Fraction(2) ** 2
    for i in range(30):
        for j in range(i + 1, 30):
            dx = r.points[i][0] - r.points[j][0]
            dy = r.points[i][1] - r.points[j][1]
            assert dx * dx + dy * dy != d2


def test_random_signrank3_no_zero_products():
    a, b = gen.random_signrank3(10, 10, seed=3)
    for u in a:
        assert u[2] != 0
        for w in b:
            assert sum(x * y for x, y in zip(u, w)) != 0


def test_random_halfspace_scene_is_kfree():
    for dim, s in ((1, 3), (2, 3), (3, 3)):
        sc = gen.random_halfspace_scene(dim, 12, 6, seed=dim * 7, s=s)
        g = incidence_graph(sc)
        if dim == 1:
            assert not has_biclique(g, s, s)
        else:
            assert not has_biclique(g, 2, s)
        assert g.m > 0


def test_point_line_scene_is_k22_free():
    pts, lines = gen.random_point_line_scene(15, 8, seed=9)
    g = point_line_incidence(pts, lines)
    assert not has_biclique(g, 2, 2)


def test_point_boxes_shapes():
    pts, boxes = gen.random_point_boxes(10, 5, seed=4)
    g = point_box_incidence(pts, boxes)
    assert g.n_left == 10 and g.n_right == 5


def test_generators_reject_more_points_than_their_grid():
    # only rejected sizes: an accepted oversized request would never return
    with pytest.raises(ValueError):
        gen.random_point_boxes(170, 5, seed=1)
    with pytest.raises(ValueError):
        gen.random_point_boxes(10, 2, seed=1, coord=2)
    with pytest.raises(ValueError):
        gen.random_point_line_scene(170, 5, seed=1)
    with pytest.raises(ValueError):
        gen.random_halfspace_scene(1, 194, 4, seed=1)


def test_point_line_scene_needs_two_points():
    for n in (0, 1):
        with pytest.raises(ValueError):
            gen.random_point_line_scene(n, 3, seed=1)
