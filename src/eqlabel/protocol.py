"""Constant-cost adjacency protocols over an equality oracle.

A run is a sequence of events, each appending one bit to the transcript:

    ("bit", v, party, None, None)   party ("A"/"B") announces bit v
    ("eq",  v, None, op_a, op_b)    oracle call; v = [op_a == op_b]

The output is +1 for adjacent and -1 for non-adjacent. Two properties are
maintained throughout and are what the label compiler relies on: every
operand and announced bit is a function of one party's own input plus the
prior transcript, and the control flow (which event comes next, when the
run stops, what it outputs) is a function of the transcript alone.

The general bipartite protocol recurses on sub-instances. A sub-instance is
two disjoint vertex sets plus a flip flag; its adjacency is the base
adjacency XOR flip. Each fresh call starts from scratch: one bit for the
caller's side, one guarded equality on connected-component ids (the guard
sends a sentinel when the sides coincide, so the call also settles same-side
and cross-component pairs), then the bag-tree descent. Equivalence-graph
instances exit right after the component call, giving the two-event base
case. Chain index strictly decreases along every recursion, which bounds
both depth and cost by functions of the top-level chain index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import BipartiteGraph
from .geometry import (
    UdgRealization,
    signrank3_decompose,
    signrank_graph,
    udg_grid_partition,
)
from .gyarfas import (
    components_within,
    decompose_neighbors,
    edge_ancestors,
    parity_vertices,
)

SENTINEL = ("s",)


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
class Run:
    """One finished protocol run: output sign, events, recursion depth."""

    output: int
    events: tuple
    depth: int

    @property
    def cost(self) -> int:
        return len(self.events)


class _Ctx:
    __slots__ = ("events", "limit")

    def __init__(self, limit: int):
        self.events: list = []
        self.limit = limit

    def bit(self, value, party: str) -> int:
        v = 1 if value else 0
        if len(self.events) >= self.limit:
            raise ProtocolError("event limit exceeded")
        self.events.append(("bit", v, party, None, None))
        return v

    def eq(self, op_a, op_b) -> int:
        v = 1 if op_a == op_b else 0
        if len(self.events) >= self.limit:
            raise ProtocolError("event limit exceeded")
        self.events.append(("eq", v, None, op_a, op_b))
        return v


def _neighbors(xs, ys, base_adjacent, flip: bool) -> dict:
    """Adjacency sets of the bipartite graph between xs and ys whose edges
    are the pairs with base_adjacent(x, y) != flip."""
    nbrs = {v: set() for v in xs}
    nbrs.update({v: set() for v in ys})
    for u in xs:
        nu = nbrs[u]
        for w in ys:
            if base_adjacent(u, w) != flip:
                nu.add(w)
                nbrs[w].add(u)
    return nbrs


def _components(nbrs: dict) -> tuple:
    """(comp_of, comps): each vertex's component key, its smallest vertex,
    and key -> sorted vertex tuple."""
    comp_of: dict = {}
    comps: dict = {}
    for comp in components_within(nbrs, nbrs.keys()):
        m = min(comp)
        comps[m] = tuple(sorted(comp))
        for v in comp:
            comp_of[v] = m
    return comp_of, comps


class _Instance:
    """Memoized plan for one sub-instance: adjacency, components, and the
    lazily built bag-tree plans of its components and their depth-1 bags."""

    def __init__(self, solver: "_Solver", left: tuple, right: tuple, flip: bool):
        self.solver = solver
        self.left = left
        self.right = right
        self.flip = flip
        self.side = {v: 0 for v in left}
        self.side.update({v: 1 for v in right})
        self.nbrs = _neighbors(left, right, solver.base_adjacent, flip)
        self.comp_of, self.comps = _components(self.nbrs)
        self.is_equivalence = all(
            len(self.nbrs[u]) == sum(1 for v in comp if self.side[v] == 1)
            for comp in self.comps.values()
            for u in comp
            if self.side[u] == 0
        )
        self._plans: dict = {}
        self._parity: dict = {}

    def comp_token(self, v) -> tuple:
        return ("c", self.comp_of[v])

    def comp_plan(self, cmin) -> "_Plan":
        """Bag tree of one component, rooted at its smallest side-0 vertex."""
        plan = self._plans.get(cmin)
        if plan is None:
            verts = self.comps[cmin]
            root = min(v for v in verts if self.side[v] == 0)
            plan = _Plan(self, self.nbrs, verts, root, complement=False)
            self._plans[cmin] = plan
        return plan

    def parity_plan(self, cmin, b: int) -> "_ParityPlan":
        """Complement plan of the depth-1 bag b of component cmin's tree."""
        pp = self._parity.get((cmin, b))
        if pp is None:
            pp = _ParityPlan(self, self.comp_plan(cmin).T, b)
            self._parity[(cmin, b)] = pp
        return pp

    def child(self, verts, flip: bool) -> "_Instance":
        """The sub-instance on verts, split by side, with the given flip."""
        side = self.side
        lo = tuple(sorted(v for v in verts if side[v] == 0))
        hi = tuple(sorted(v for v in verts if side[v] == 1))
        return self.solver.instance(lo, hi, flip)


class _Plan:
    """Bag tree of one connected piece of an instance: a component of the
    instance itself, or a complement component of a parity plan. It keeps
    each bag's edge-holding ancestors and, per matched ancestor bag, the
    child instance the protocol recurses on. A component plan's child is
    the bag plus the opposite-parity vertices below it, same flip (step 3);
    a complement plan's is the bag's subtree, flip negated (step 2)."""

    def __init__(self, inst: _Instance, nbrs: dict, verts, root, complement: bool):
        self.inst = inst
        self.nbrs = nbrs
        self.complement = complement
        self.T = decompose_neighbors({v: nbrs[v] for v in verts}, root)
        self._children: dict = {}

    @cached_property
    def edge_anc(self) -> tuple:
        """Per bag, its edge-holding ancestors by increasing depth."""
        return tuple(
            edge_ancestors(self.T, self.nbrs, b) for b in range(self.T.n_bags)
        )

    @cached_property
    def maxL(self) -> int:
        """Largest number of edge-holding ancestors of any bag."""
        return max(map(len, self.edge_anc))

    def child(self, b: int) -> _Instance:
        inst = self._children.get(b)
        if inst is None:
            T, top = self.T, self.inst
            if self.complement:
                inst = top.child(T.subtree_vertices(b), not top.flip)
            else:
                inst = top.child(T.bags[b] + parity_vertices(T, b), top.flip)
            self._children[b] = inst
        return inst


class _ParityPlan:
    """For a depth-1 bag B: the complement instance between B and the
    opposite-parity vertices below it, its components, and one bag-tree
    plan per component rooted inside B."""

    def __init__(self, inst: _Instance, T, b_idx: int):
        self.inst = inst
        bverts = T.bags[b_idx]
        pverts = parity_vertices(T, b_idx)
        self.bset = frozenset(bverts)
        self.nbrs = _neighbors(
            pverts, bverts, inst.solver.base_adjacent, not inst.flip
        )
        self.comp_of, self.comps = _components(self.nbrs)
        self._plans: dict = {}

    def comp_token(self, v) -> tuple:
        return ("b", self.comp_of[v])

    def plan(self, cmin) -> _Plan:
        plan = self._plans.get(cmin)
        if plan is None:
            verts = self.comps[cmin]
            root = min(v for v in verts if v in self.bset)
            plan = _Plan(self.inst, self.nbrs, verts, root, complement=True)
            self._plans[cmin] = plan
        return plan


def _scan(eq_xy, tag: str, plan: _Plan, bx: int, by: int):
    """Edge-ancestor scan of bags bx (x's) and by (y's): maxL equalities
    asking whether by is an edge-holding ancestor of bx, then maxL asking
    the reverse, each list padded with the sentinel. Returns the matched
    ancestor bag, or None when neither holds."""
    L = plan.maxL
    x_anc = plan.edge_anc[bx]
    oy = (tag, by)
    for k in range(L):
        if eq_xy((tag, x_anc[k]) if k < len(x_anc) else SENTINEL, oy):
            return by
    y_anc = plan.edge_anc[by]
    ox = (tag, bx)
    for k in range(L):
        if eq_xy(ox, (tag, y_anc[k]) if k < len(y_anc) else SENTINEL):
            return bx
    return None


class _Solver:
    """Shared machinery: instance memo plus the recursive fresh call."""

    def __init__(self, base_adjacent, event_limit: int = 4096):
        self.base_adjacent = base_adjacent
        self.event_limit = event_limit
        self._instances: dict = {}

    def instance(self, left: tuple, right: tuple, flip: bool) -> _Instance:
        key = (left, right, flip)
        inst = self._instances.get(key)
        if inst is None:
            inst = _Instance(self, left, right, flip)
            self._instances[key] = inst
        return inst

    def run_pair(self, inst: _Instance, ax, by) -> Run:
        ctx = _Ctx(self.event_limit)
        out, depth = self.fresh(inst, ax, by, ctx, 1)
        return Run(out, tuple(ctx.events), depth)

    def fresh(self, inst: _Instance, ax, by, ctx: _Ctx, depth: int) -> tuple:
        """One protocol instance from the top. ax is real-Alice's vertex,
        by real-Bob's; internal roles swap so the bag tree is always rooted
        on side 0, with every event attributed to the real party."""
        sa = inst.side[ax]
        sb = inst.side[by]
        ctx.bit(sa, "A")
        op_a = inst.comp_token(ax)
        op_b = inst.comp_token(by) if sb != sa else SENTINEL
        if not ctx.eq(op_a, op_b):
            return -1, depth
        if inst.is_equivalence:
            # same component of an equivalence instance: a complete pair
            return 1, depth
        cmin = inst.comp_of[ax]
        plan = inst.comp_plan(cmin)
        if sa == 0:
            px, py, p_a, p_b = ax, by, "A", "B"
        else:
            px, py, p_a, p_b = by, ax, "B", "A"

        def eq_xy(op_x, op_y):
            # operands in real (Alice, Bob) order
            if p_a == "A":
                return ctx.eq(op_x, op_y)
            return ctx.eq(op_y, op_x)

        T = plan.T
        bx = T.bag_of[px]
        bb = T.bag_of[py]

        # step 1: the root vertex is adjacent exactly to the depth-1 bags
        if ctx.bit(bx == 0, p_a):
            return (1 if ctx.bit(T.depth[bb] == 1, p_b) else -1), depth

        if ctx.bit(T.depth[bb] == 1, p_b):
            # step 2: the peer's bag B sits at depth 1. An edge needs B to
            # be the depth-1 ancestor of x's bag.
            anc1 = T.ancestor_at_depth(bx, 1)
            if not eq_xy(("g", anc1), ("g", bb)):
                return -1, depth
            pp = inst.parity_plan(cmin, bb)
            # complement trick: different complement components mean the
            # complement has no edge here, i.e. the instance has one
            if not eq_xy(pp.comp_token(px), pp.comp_token(py)):
                return 1, depth
            plan = pp.plan(pp.comp_of[px])
            T = plan.T
            if ctx.bit(py == T.root, p_b):
                v = ctx.bit(T.depth[T.bag_of[px]] == 1, p_a)
                return (-1 if v else 1), depth
            # scan the complement tree and negate the child's answer
            tag, sign = "y", -1
        else:
            # step 3: the peer's bag is at odd depth >= 3; an edge needs one
            # bag to be an edge-holding ancestor of the other
            tag, sign = "g", 1
        b = _scan(eq_xy, tag, plan, T.bag_of[px], T.bag_of[py])
        if b is None:
            # the scanned graph has no edge between the two bags
            return -sign, depth
        r, d = self.fresh(plan.child(b), ax, by, ctx, depth + 1)
        return sign * r, d


# ---------------------------------------------------------------------------
# public protocols


class BipartiteProtocol:
    """Adjacency protocol for a bipartite graph over its global vertex ids.
    Any ordered pair is answerable; same-side pairs cost two events."""

    def __init__(self, g: BipartiteGraph, event_limit: int = 4096):
        self.graph = g
        self._solver = _Solver(g.gid_adjacent, event_limit)
        self._top = self._solver.instance(
            tuple(range(g.n_left)), tuple(range(g.n_left, g.n)), False
        )

    @property
    def n(self) -> int:
        return self.graph.n

    def run(self, u: int, w: int) -> Run:
        if not (0 <= u < self.n and 0 <= w < self.n):
            raise ValueError("vertex out of range")
        return self._solver.run_pair(self._top, u, w)

    def truth(self, u: int, w: int) -> int:
        return 1 if self.graph.gid_adjacent(u, w) else -1


class UnitDiskProtocol:
    """Adjacency protocol for a unit-disk realization over its point ids.

    Same grid cell answers in one equality call. Otherwise an x-scan asks
    [cx(a) + d == cx(b)] for d = -2..2 and a y-scan does the same on cy,
    each stopping at its first match; a scan with no match means the cells
    are more than 2 apart on that axis, so the points are farther apart than
    the radius. A far pair costs 1 + 5 events when the x-scan misses and
    1 + (dx + 3) + 5 when only the y-scan does, dx = cx(b) - cx(a). When
    both match (at most 1 + 5 + 5 events), the general protocol runs on the
    complement of the two-cell bipartite piece, and its answer is negated."""

    def __init__(self, r: UdgRealization, event_limit: int = 4096):
        self.realization = r
        self._solver = _Solver(r.adjacent, event_limit)
        self.cells = udg_grid_partition(r)
        self._cell_of = [None] * r.n
        for c, ids in self.cells.items():
            for i in ids:
                self._cell_of[i] = c

    @property
    def n(self) -> int:
        return self.realization.n

    def run(self, i: int, j: int) -> Run:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError("point out of range")
        ctx = _Ctx(self._solver.event_limit)
        ca = self._cell_of[i]
        cb = self._cell_of[j]
        if ctx.eq(("cell",) + ca, ("cell",) + cb):
            return Run(1, tuple(ctx.events), 1)
        for tag, a, b in (("cx", ca[0], cb[0]), ("cy", ca[1], cb[1])):
            op_b = (tag, b)
            for x in range(a - 2, a + 3):
                if ctx.eq((tag, x), op_b):
                    break
            else:
                # cells more than two apart on this axis: farther than the radius
                return Run(-1, tuple(ctx.events), 1)
        inst = self._solver.instance(self.cells[ca], self.cells[cb], True)
        r, d = self._solver.fresh(inst, i, j, ctx, 2)
        return Run(-r, tuple(ctx.events), d)

    def truth(self, i: int, j: int) -> int:
        return 1 if self.realization.adjacent(i, j) else -1


class SignRankProtocol:
    """Adjacency protocol for a rank-3 sign factorization: u and w are
    adjacent when their inner product is positive. Three announced bits
    select the mixed piece (one for u's class, two for w's normal pattern),
    then the general protocol runs on that piece."""

    def __init__(self, a_vectors, b_vectors, event_limit: int = 4096):
        self.decomposition = signrank3_decompose(a_vectors, b_vectors)
        self.graph = signrank_graph(a_vectors, b_vectors)
        self.n_u = len(a_vectors)
        self.n_w = len(b_vectors)
        self._solver = _Solver(self.graph.gid_adjacent, event_limit)

    def run(self, u: int, w: int) -> Run:
        if not (0 <= u < self.n_u and 0 <= w < self.n_w):
            raise ValueError("index out of range")
        d = self.decomposition
        cls = d.u_class[u]
        pat = d.w_pattern[w]
        ctx = _Ctx(self._solver.event_limit)
        ctx.bit(cls, "A")
        ctx.bit((pat >> 1) & 1, "B")
        ctx.bit(pat & 1, "B")
        _, uids, wids = d.pieces[(cls, pat)]
        inst = self._solver.instance(
            tuple(uids), tuple(self.n_u + wi for wi in wids), False
        )
        r, dep = self._solver.fresh(inst, u, self.n_u + w, ctx, 2)
        return Run(r, tuple(ctx.events), dep)

    def truth(self, u: int, w: int) -> int:
        return 1 if self.graph.has_edge(u, w) else -1
