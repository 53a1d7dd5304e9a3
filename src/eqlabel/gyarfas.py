"""Rooted bag decompositions of connected bipartite graphs.

The construction peels the graph from a root: the root forms a singleton
bag, and for every connected component C of the unassigned vertices hanging
below a bag B, the smallest vertex h of B with a neighbor in C becomes the
hook, N(h) & C the child bag, and the components of the remainder recurse
under that child. The resulting bag tree satisfies, by construction: bags
partition the vertices and alternate sides level by level; every edge joins
a bag to a strict ancestor; every bag plus its descendants is connected; and
each hook sees its whole child bag but nothing strictly below it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .graphs import BipartiteGraph, is_connected


@dataclass(frozen=True)
class Decomposition:
    """Bag tree. Bag 0 is the singleton root; parent[0] = hook[0] = -1.
    Bags store sorted vertex ids; hooks are vertices of the parent bag."""

    root: int
    bags: tuple
    parent: tuple
    hook: tuple

    @property
    def n_bags(self) -> int:
        return len(self.bags)

    @cached_property
    def depth(self) -> tuple:
        d = [0] * self.n_bags
        for b in range(1, self.n_bags):
            d[b] = d[self.parent[b]] + 1
        return tuple(d)

    @cached_property
    def children(self) -> tuple:
        ch: list = [[] for _ in range(self.n_bags)]
        for b in range(1, self.n_bags):
            ch[self.parent[b]].append(b)
        return tuple(tuple(c) for c in ch)

    @cached_property
    def bag_of(self) -> dict:
        return {v: b for b, bag in enumerate(self.bags) for v in bag}

    def ancestors(self, b: int) -> tuple:
        """Bag indices strictly above b, nearest first."""
        out = []
        p = self.parent[b]
        while p != -1:
            out.append(p)
            p = self.parent[p]
        return tuple(out)

    def ancestor_at_depth(self, b: int, d: int) -> int:
        while self.depth[b] > d:
            b = self.parent[b]
        if self.depth[b] != d:
            raise ValueError("bag is not that deep")
        return b

    def subtree_bags(self, b: int) -> tuple:
        out = []
        stack = [b]
        while stack:
            x = stack.pop()
            out.append(x)
            stack.extend(reversed(self.children[x]))
        return tuple(out)

    def subtree_vertices(self, b: int) -> tuple:
        return tuple(
            sorted(v for x in self.subtree_bags(b) for v in self.bags[x])
        )


def components_within(nbrs: Mapping, verts) -> list:
    """Connected components of the subgraph that nbrs induces on verts, as
    frozensets ordered by their smallest vertex."""
    comps = []
    left = set(verts)
    while left:
        s = min(left)
        comp = {s}
        q = deque([s])
        while q:
            v = q.popleft()
            for w in nbrs[v]:
                if w in left and w not in comp:
                    comp.add(w)
                    q.append(w)
        left -= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def decompose_neighbors(nbrs: Mapping, root) -> Decomposition:
    """Core construction over an adjacency mapping {vertex: iterable of
    neighbors}. The mapping must describe one connected graph containing
    the root. Bags come out in breadth-first order over the bag tree."""
    verts = set(nbrs)
    if root not in verts:
        raise ValueError("root not among the vertices")
    nbrs = {v: set(nbrs[v]) for v in verts}
    bags = [(root,)]
    parent = [-1]
    hook = [-1]
    q = deque(
        (0, c) for c in components_within(nbrs, verts - {root})
    )
    assigned = 1
    while q:
        pb, comp = q.popleft()
        hcands = [v for v in bags[pb] if nbrs[v] & comp]
        if not hcands:
            raise ValueError("adjacency is not connected")
        h = min(hcands)
        bag = tuple(sorted(nbrs[h] & comp))
        bi = len(bags)
        bags.append(bag)
        parent.append(pb)
        hook.append(h)
        assigned += len(bag)
        for c in components_within(nbrs, comp - set(bag)):
            q.append((bi, c))
    if assigned != len(verts):
        raise ValueError("adjacency is not connected")
    return Decomposition(root, tuple(bags), tuple(parent), tuple(hook))


def neighbor_map(g: BipartiteGraph) -> dict:
    return {v: frozenset(g.gid_neighbors(v)) for v in range(g.n)}


def decompose(g: BipartiteGraph, root: int = 0) -> Decomposition:
    """Decompose a connected bipartite graph from a root vertex (global id)."""
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if not 0 <= root < g.n:
        raise ValueError("root out of range")
    return decompose_neighbors(neighbor_map(g), root)


# ---------------------------------------------------------------------------
# derived structure


def edge_ancestors(dec: Decomposition, nbrs: Mapping, b: int) -> tuple:
    """Ancestor bags of b holding at least one edge into bag b, ordered by
    increasing depth. The parent always qualifies through the hook edge."""
    bagset = set(dec.bags[b])
    out = []
    for a in reversed(dec.ancestors(b)):
        averts = dec.bags[a]
        if any(nbrs[v] & bagset for v in averts):
            out.append(a)
    return tuple(out)


def parity_vertices(dec: Decomposition, b: int) -> tuple:
    """Vertices in strict descendants of bag b whose bag depth differs from
    depth(b) by an odd amount; these sit on the opposite side of the
    bipartition from bag b."""
    db = dec.depth[b]
    out = []
    for x in dec.subtree_bags(b):
        if x == b:
            continue
        if (dec.depth[x] - db) % 2 == 1:
            out.extend(dec.bags[x])
    return tuple(sorted(out))
