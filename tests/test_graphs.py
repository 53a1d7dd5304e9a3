import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlabel.graphs import (
    BipartiteGraph,
    Graph,
    GraphFormatError,
    bipartite_complement,
    connected_components,
    format_graph_text,
    is_connected,
    parse_graph_text,
)


def bipartite_graphs(max_side=6):
    @st.composite
    def build(draw):
        nl = draw(st.integers(1, max_side))
        nr = draw(st.integers(1, max_side))
        pairs = [(i, j) for i in range(nl) for j in range(nr)]
        chosen = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        return BipartiteGraph.from_edges(nl, nr, chosen)

    return build()


def test_gid_layout():
    g = BipartiteGraph.from_edges(2, 3, [(0, 0), (1, 2)])
    assert g.n == 5
    assert g.side_of(1) == 0 and g.side_of(4) == 1
    assert g.gid_adjacent(0, 2)
    assert not g.gid_adjacent(0, 3)
    # same-side pairs are never adjacent
    assert not g.gid_adjacent(0, 1)


def test_adjacency_maps():
    g = BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 1), (1, 1)])
    assert g.adj_left[0] == (0, 1)
    assert g.adj_right[0] == (0,)
    assert g.gid_neighbors(0) == (2, 3)
    assert g.gid_neighbors(3) == (0, 1)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 5)])
    with pytest.raises(ValueError):
        BipartiteGraph.from_edges(2, 2, [(2, 0)])


@given(bipartite_graphs())
def test_complement_is_involution(g):
    assert bipartite_complement(bipartite_complement(g)) == g


@given(bipartite_graphs())
def test_complement_flips_every_pair(g):
    c = bipartite_complement(g)
    for i in range(g.n_left):
        for j in range(g.n_right):
            assert g.has_edge(i, j) != c.has_edge(i, j)


def test_components_ordered_by_min_vertex():
    g = Graph.from_edges(6, [(3, 4), (0, 5)])
    comps = connected_components(g)
    assert comps == [[0, 5], [1], [2], [3, 4]]
    assert not is_connected(g)
    assert is_connected(Graph.from_edges(2, [(0, 1)]))


def test_bipartite_components_use_gids():
    g = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 1)])
    assert connected_components(g) == [[0, 2], [1, 3]]


@given(bipartite_graphs())
def test_text_round_trip(g):
    assert parse_graph_text(format_graph_text(g)) == g


def test_text_round_trip_plain_graph():
    g = Graph.from_edges(4, [(0, 3), (1, 2)])
    assert parse_graph_text(format_graph_text(g)) == g


def test_parse_rejects_malformed():
    for text in (
        "",
        "bipartite 2 2",
        "bipartite 2 2 1\ne 0 9",
        "graph 3 1\ne 0 0",
        "bipartite 2 2 2\ne 0 0",  # edge count mismatch
        "nonsense 1 2 3",
    ):
        with pytest.raises(GraphFormatError):
            parse_graph_text(text)
