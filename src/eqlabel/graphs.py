"""Immutable graph containers and the plain-text graph format.

Two carriers are used throughout: BipartiteGraph keeps the two sides as
separate dense 0-based id spaces, Graph is an ordinary simple graph. Global
vertex ids for a bipartite graph put the left side first: left i -> i,
right j -> n_left + j. All derived iteration orders are sorted so that
repeated runs produce byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with n_left + n_right vertices and edges (i, j)
    between left vertex i and right vertex j."""

    n_left: int
    n_right: int
    edges: frozenset

    def __post_init__(self):
        for (i, j) in self.edges:
            if not (0 <= i < self.n_left and 0 <= j < self.n_right):
                raise ValueError(f"edge ({i},{j}) out of range")

    @staticmethod
    def from_edges(n_left: int, n_right: int, edges: Iterable) -> "BipartiteGraph":
        es = list(edges)
        fs = frozenset((int(i), int(j)) for i, j in es)
        if len(fs) != len(es):
            raise ValueError("duplicate edge")
        return BipartiteGraph(n_left, n_right, fs)

    @property
    def n(self) -> int:
        return self.n_left + self.n_right

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj_left(self):
        """adj_left[i] = sorted tuple of right neighbours of left i."""
        a = [[] for _ in range(self.n_left)]
        for i, j in self.edges:
            a[i].append(j)
        return tuple(tuple(sorted(x)) for x in a)

    @cached_property
    def adj_right(self):
        a = [[] for _ in range(self.n_right)]
        for i, j in self.edges:
            a[j].append(i)
        return tuple(tuple(sorted(x)) for x in a)

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    # global-id helpers: left i -> i, right j -> n_left + j
    def side_of(self, g: int) -> int:
        return 0 if g < self.n_left else 1

    def gid_neighbors(self, g: int):
        """Neighbours of a global id, as sorted global ids."""
        if g < self.n_left:
            return tuple(self.n_left + j for j in self.adj_left[g])
        return self.adj_right[g - self.n_left]

    def gid_adjacent(self, g: int, h: int) -> bool:
        sg, sh = self.side_of(g), self.side_of(h)
        if sg == sh:
            return False
        if sg == 1:
            g, h = h, g
        return (g, h - self.n_left) in self.edges


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1; edges stored as (u, v)
    with u < v, no self-loops."""

    n: int
    edges: frozenset

    def __post_init__(self):
        for (u, v) in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range or unordered")

    @staticmethod
    def from_edges(n: int, edges: Iterable) -> "Graph":
        es = []
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError("self-loop")
            es.append((min(u, v), max(u, v)))
        fs = frozenset(es)
        if len(fs) != len(es):
            raise ValueError("duplicate edge")
        return Graph(n, fs)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self):
        a = [[] for _ in range(self.n)]
        for u, v in self.edges:
            a[u].append(v)
            a[v].append(u)
        return tuple(tuple(sorted(x)) for x in a)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return (min(u, v), max(u, v)) in self.edges


def bipartite_complement(g: BipartiteGraph) -> BipartiteGraph:
    """Flip every left-right pair; sides are preserved."""
    edges = frozenset(
        (i, j)
        for i in range(g.n_left)
        for j in range(g.n_right)
        if (i, j) not in g.edges
    )
    return BipartiteGraph(g.n_left, g.n_right, edges)


def connected_components(g) -> list:
    """Components as sorted lists of global vertex ids, ordered by min id."""
    if isinstance(g, BipartiteGraph):
        n = g.n
        nbrs = g.gid_neighbors
    else:
        n = g.n
        nbrs = lambda v: g.adj[v]  # noqa: E731
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [s]
        comp = [s]
        while stack:
            v = stack.pop()
            for w in nbrs(v):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g) -> bool:
    if (g.n if isinstance(g, Graph) else g.n) == 0:
        return True
    return len(connected_components(g)) <= 1


class GraphFormatError(ValueError):
    pass


def format_graph_text(g) -> str:
    """Render a graph in the line-oriented text format."""
    out = []
    if isinstance(g, BipartiteGraph):
        out.append(f"bipartite {g.n_left} {g.n_right} {g.m}")
        for i, j in sorted(g.edges):
            out.append(f"e {i} {j}")
    elif isinstance(g, Graph):
        out.append(f"graph {g.n} {g.m}")
        for u, v in sorted(g.edges):
            out.append(f"e {u} {v}")
    else:
        raise TypeError(type(g).__name__)
    return "\n".join(out) + "\n"


def parse_graph_text(text: str):
    """Parse the text format back into a BipartiteGraph or Graph.

    Rejects duplicate edges, out-of-range endpoints, malformed lines, and
    edge-count mismatches.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError("empty graph file")
    head = lines[0].split()
    body = lines[1:]
    if head[0] == "bipartite":
        if len(head) != 4:
            raise GraphFormatError("bad bipartite header")
        nl, nr, m = (int(x) for x in head[1:])
        edges = []
        for ln in body:
            parts = ln.split()
            if len(parts) != 3 or parts[0] != "e":
                raise GraphFormatError(f"bad edge line: {ln!r}")
            i, j = int(parts[1]), int(parts[2])
            if not (0 <= i < nl and 0 <= j < nr):
                raise GraphFormatError(f"edge ({i},{j}) out of range")
            edges.append((i, j))
        if len(set(edges)) != len(edges):
            raise GraphFormatError("duplicate edge")
        if len(edges) != m:
            raise GraphFormatError("edge count mismatch")
        return BipartiteGraph(nl, nr, frozenset(edges))
    if head[0] == "graph":
        if len(head) != 3:
            raise GraphFormatError("bad graph header")
        n, m = int(head[1]), int(head[2])
        edges = []
        for ln in body:
            parts = ln.split()
            if len(parts) != 3 or parts[0] != "e":
                raise GraphFormatError(f"bad edge line: {ln!r}")
            u, v = int(parts[1]), int(parts[2])
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) out of range")
            edges.append((min(u, v), max(u, v)))
        if len(set(edges)) != len(edges):
            raise GraphFormatError("duplicate edge")
        if len(edges) != m:
            raise GraphFormatError("edge count mismatch")
        return Graph(n, frozenset(edges))
    raise GraphFormatError(f"unknown header {head[0]!r}")
