import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlabel import generators as gen
from eqlabel.graphs import BipartiteGraph
from eqlabel.gyarfas import (
    decompose,
    decompose_neighbors,
    edge_ancestors,
    neighbor_map,
    parity_vertices,
)
from eqlabel.oracles import verify_decomposition


def test_path_five_decomposition():
    d = decompose(gen.path_graph(5))
    assert d.bags == ((0,), (3,), (1,), (4,), (2,))
    assert d.parent == (-1, 0, 1, 2, 3)
    assert d.hook == (-1, 0, 3, 1, 4)


def test_cycle_six_decomposition():
    g = gen.cycle_graph(6)
    d = decompose(g)
    assert d.bags == ((0,), (3, 5), (1,), (4,), (2,))
    assert d.parent == (-1, 0, 1, 2, 3)
    assert d.hook == (-1, 0, 3, 1, 4)
    assert verify_decomposition(g, d) == ()


def test_star_decomposition_bag_count():
    # K_{1,5}: every leaf lands in its own bag under the root
    g = gen.biclique(1, 5)
    d = decompose(g)
    assert len(d.bags) == 6
    assert all(p == 0 for p in d.parent[1:])
    assert verify_decomposition(g, d) == ()


def test_decompose_requires_connected():
    g = BipartiteGraph.from_edges(2, 2, [(0, 0)])
    with pytest.raises(ValueError):
        decompose(g)


def test_depth_children_and_ancestors():
    d = decompose(gen.cycle_graph(6))
    assert [d.depth[b] for b in range(5)] == [0, 1, 2, 3, 4]
    assert d.children[0] == (1,)
    assert d.bag_of[5] == 1
    assert d.ancestors(4) == (3, 2, 1, 0)
    assert d.ancestor_at_depth(4, 1) == 1
    assert d.subtree_bags(2) == (2, 3, 4)
    assert set(d.subtree_vertices(2)) == {1, 4, 2}


def test_parity_vertices():
    d = decompose(gen.cycle_graph(6))
    # strict descendants of bag 1 at odd depth offsets
    assert parity_vertices(d, 1) == (1, 2)
    assert parity_vertices(d, 4) == ()


def test_edge_ancestors_increasing_depth():
    g = gen.cycle_graph(6)
    d = decompose(g)
    nbrs = neighbor_map(g)
    anc = edge_ancestors(d, nbrs, 4)
    assert anc == (1, 3)  # bag 4 = {2}: edges to bag 1 ({3,5}) and bag 3 ({4})
    depths = [d.depth[b] for b in anc]
    assert depths == sorted(depths)


def test_decompose_neighbors_rejects_disconnected_map():
    nbrs = {0: frozenset({1}), 1: frozenset({0}), 2: frozenset({3}), 3: frozenset({2})}
    with pytest.raises(ValueError):
        decompose_neighbors(nbrs, 0)


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_random_decompositions_verify(seed):
    g = gen.random_connected_bipartite(2 + seed % 6, 2 + (seed // 7) % 6, 0.4, seed)
    d = decompose(g)
    assert verify_decomposition(g, d) == ()


def test_alternate_roots_still_verify():
    g = gen.cycle_graph(8)
    for root in range(g.n):
        d = decompose(g, root=root)
        assert verify_decomposition(g, d) == ()
        assert d.bags[0] == (root,)
