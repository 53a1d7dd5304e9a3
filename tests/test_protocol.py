import hashlib
from fractions import Fraction

import pytest

from eqlabel import generators as gen
from eqlabel import protocol as proto
from eqlabel.geometry import UdgRealization, signrank_graph
from eqlabel.graphs import BipartiteGraph
from eqlabel.oracles import chain_index
from eqlabel.protocol import (
    SENTINEL,
    BipartiteProtocol,
    ProtocolError,
    SignRankProtocol,
    UnitDiskProtocol,
)


def exact_on_all_pairs(p, n):
    worst = 0
    for u in range(n):
        for w in range(n):
            r = p.run(u, w)
            assert r.output == p.truth(u, w), (u, w)
            worst = max(worst, r.cost)
    return worst


# general bipartite ----------------------------------------------------------


def test_exact_on_fixed_families():
    for g in (
        gen.path_graph(5),
        gen.cycle_graph(6),
        gen.cycle_graph(8),
        gen.biclique(3, 3),
        gen.half_graph(4),
        gen.random_equivalence(5, 6, 2, seed=1),
    ):
        exact_on_all_pairs(BipartiteProtocol(g), g.n)


def test_exact_on_random_instances():
    for seed in range(12):
        g = gen.random_connected_bipartite(
            2 + seed % 5, 2 + (seed * 3) % 5, 0.4, seed
        )
        exact_on_all_pairs(BipartiteProtocol(g), g.n)


def test_equivalence_graphs_cost_two():
    for seed in range(6):
        g = gen.random_equivalence(6, 6, 3, seed=seed)
        p = BipartiteProtocol(g)
        assert exact_on_all_pairs(p, g.n) <= 2


def test_same_side_pairs_cost_two():
    g = gen.cycle_graph(8)
    p = BipartiteProtocol(g)
    for u in range(g.n_left):
        for w in range(g.n_left):
            if u == w:
                continue
            r = p.run(u, w)
            assert r.output == -1 and r.cost == 2
            kinds = [e[0] for e in r.events]
            assert kinds == ["bit", "eq"]
            # the guarded equality compares against the sentinel
            assert r.events[1][4] == SENTINEL


def test_cost_regression_paths():
    frozen = {2: 2, 3: 2, 4: 8, 8: 8, 12: 8, 16: 8}
    for t, want in frozen.items():
        g = gen.path_graph(t)
        assert exact_on_all_pairs(BipartiteProtocol(g), g.n) == want


def test_cost_regression_even_cycles():
    frozen = {4: 2, 6: 9, 8: 11, 10: 11, 14: 11}
    for t, want in frozen.items():
        g = gen.cycle_graph(t)
        assert exact_on_all_pairs(BipartiteProtocol(g), g.n) == want


def test_cost_regression_half_graphs():
    frozen = {2: 2, 3: 6, 4: 8, 5: 11, 6: 17}
    for k, want in frozen.items():
        g = gen.half_graph(k)
        assert exact_on_all_pairs(BipartiteProtocol(g), g.n) == want


def test_runs_are_deterministic():
    g = gen.random_connected_bipartite(5, 5, 0.4, seed=9)
    p = BipartiteProtocol(g)
    for u in range(g.n):
        for w in range(g.n):
            assert p.run(u, w) == p.run(u, w)


def test_depth_bounded_by_chain_index_plus_one():
    for seed in range(10):
        g = gen.random_connected_bipartite(4, 4, 0.45, seed)
        ch = chain_index(g)
        p = BipartiteProtocol(g)
        for u in range(g.n):
            for w in range(g.n):
                assert p.run(u, w).depth <= ch + 1


def _instance_graph(inst) -> BipartiteGraph:
    es = [
        (i, j)
        for i, u in enumerate(inst.left)
        for j, w in enumerate(inst.right)
        if w in inst.nbrs[u]
    ]
    return BipartiteGraph.from_edges(len(inst.left), len(inst.right), es)


def test_chain_index_strictly_decreases_per_recursion(monkeypatch):
    recorded = []
    stack = {}
    orig = proto._Solver.fresh

    def wrapper(self, inst, ax, by, ctx, depth):
        stack[depth] = inst
        if depth > 1 and (depth - 1) in stack:
            recorded.append((stack[depth - 1], inst))
        return orig(self, inst, ax, by, ctx, depth)

    monkeypatch.setattr(proto._Solver, "fresh", wrapper)
    for seed in range(8):
        g = gen.random_connected_bipartite(5, 5, 0.35, seed)
        p = BipartiteProtocol(g)
        for u in range(g.n):
            for w in range(g.n):
                p.run(u, w)
    seen = set()
    checked = 0
    for par, child in recorded:
        key = (par.left, par.right, par.flip, child.left, child.right, child.flip)
        if key in seen:
            continue
        seen.add(key)
        assert chain_index(_instance_graph(child)) < chain_index(
            _instance_graph(par)
        )
        checked += 1
    assert checked >= 20


# sha256 of repr([(output, events, depth), ...]) over all ordered pairs,
# pinned before the planner was rebuilt around one bag-tree plan class; the
# "udg" entry is pinned for the axis-scan unit-disk protocol
FROZEN_RUN_EVENTS = {
    "cycle": "ca44da23ac5a47a548e8b3cc9939aec768714db3f41199e4b03bf07c7b7a0a4b",
    "connected": "b48bb313074bdc2a397319a7e46953dab0be7fa231a6422c29ff092c828df653",
    "udg": "aee0dc038cf2be164547aad7b9247ec987ffcc315800a28b9a255f43f25c3370",
    "signrank": "12b3ca093bbbbd18e21dcdf63ae2b1df8e15bc2011facf3c11e739241712f56a",
    "signrank3": "4391590b7d6ecd9691480425f7a5525f7c2c1d08f73f660cb83029829f3f5704",
}


def test_frozen_run_events():
    r = gen.random_udg(40, box=6, radius=2, seed=2)
    sr = gen.random_signrank3(10, 10, seed=4)
    cases = {
        "cycle": (BipartiteProtocol(gen.cycle_graph(10)), 10, 10),
        "connected": (
            BipartiteProtocol(gen.random_connected_bipartite(8, 8, 0.35, seed=1)),
            16,
            16,
        ),
        "udg": (UnitDiskProtocol(r), r.n, r.n),
        "signrank": (SignRankProtocol(*sr), 10, 10),
        "signrank3": (
            BipartiteProtocol(signrank_graph(*gen.random_signrank3(8, 8, seed=4))),
            16,
            16,
        ),
    }
    depth = 0
    tags = set()
    for name, (p, n_a, n_b) in cases.items():
        runs = [p.run(u, w) for u in range(n_a) for w in range(n_b)]
        blob = repr([(x.output, x.events, x.depth) for x in runs]).encode()
        assert hashlib.sha256(blob).hexdigest() == FROZEN_RUN_EVENTS[name], name
        depth = max([depth] + [x.depth for x in runs])
        tags.update(
            op[0] for x in runs for e in x.events if e[0] == "eq" for op in e[3:]
        )
    # both scan sites and both child kinds: step 2 ("y") and step 3 ("g")
    assert depth >= 3
    assert {"y", "g"} <= tags


def test_event_limit_enforced():
    g = gen.cycle_graph(10)
    p = BipartiteProtocol(g, event_limit=3)
    with pytest.raises(ProtocolError):
        for u in range(g.n):
            for w in range(g.n):
                p.run(u, w)


def test_run_shape():
    g = gen.path_graph(4)
    p = BipartiteProtocol(g)
    r = p.run(0, 2)
    assert r.output in (-1, 1)
    assert r.cost == len(r.events)
    for e in r.events:
        assert e[0] in ("bit", "eq")
        if e[0] == "bit":
            assert e[2] in ("A", "B") and e[3] is None and e[4] is None
        else:
            assert e[2] is None and e[3] is not None and e[4] is not None
    with pytest.raises(ValueError):
        p.run(0, 99)


# unit disk ------------------------------------------------------------------


def test_udg_exact_and_bounded():
    r = gen.random_udg(30, box=8, radius=2, seed=6)
    p = UnitDiskProtocol(r)
    worst = exact_on_all_pairs(p, r.n)
    assert worst <= 64


def test_udg_same_cell_single_equality():
    r = gen.random_udg(40, box=6, radius=2, seed=2)
    p = UnitDiskProtocol(r)
    hit = 0
    for i in range(r.n):
        for j in range(r.n):
            if r.cell(i) == r.cell(j):
                run = p.run(i, j)
                assert run.cost == 1 and run.output == 1
                hit += 1
    assert hit > 40  # diagonal alone guarantees 40


def test_udg_far_cells_short_circuit():
    # a far pair stops after the cell equality and one scan per axis it
    # reaches: the x-scan misses in 5 equalities, or matches after d + 3
    # (d = cb.x - ca.x) and the y-scan then misses in 5
    r = gen.random_udg(20, box=30, radius=2, seed=4)
    p = UnitDiskProtocol(r)
    far = short = 0
    for i in range(r.n):
        for j in range(r.n):
            ca, cb = r.cell(i), r.cell(j)
            d = cb[0] - ca[0]
            if abs(d) > 2:
                cost = 6
            elif abs(cb[1] - ca[1]) > 2:
                cost = 1 + (d + 3) + 5
                short += 1
            else:
                continue
            run = p.run(i, j)
            assert run.output == -1
            assert run.cost == cost, (i, j)
            assert run.depth == 1
            far += 1
    assert far > short > 0


def _scan_head(run):
    """The eq events before the run's first bit event."""
    head = []
    for e in run.events:
        if e[0] == "bit":
            break
        head.append(e)
    return head


def test_udg_axis_scan_is_short_and_one_tagged():
    hand = UdgRealization.make(
        [
            (Fraction(-7, 3), Fraction(1, 2)),
            (Fraction(-2), Fraction(-5, 4)),
            (Fraction(-1, 7), Fraction(-1, 7)),
            (Fraction(0), Fraction(0)),
            (Fraction(9, 10), Fraction(-3)),
            (Fraction(3, 2), Fraction(11, 5)),
            (Fraction(-4), Fraction(-4)),
            (Fraction(13, 4), Fraction(-1, 3)),
            (Fraction(-1, 2), Fraction(7, 3)),
        ],
        Fraction(5, 2),
    )
    reals = [gen.random_udg(30, box=b, radius=2, seed=s)
             for s, b in ((21, 4), (22, 7), (23, 12))]
    recursive = 0
    for r in [hand] + reals:
        p = UnitDiskProtocol(r)
        for i in range(r.n):
            for j in range(r.n):
                run = p.run(i, j)
                assert run.output == p.truth(i, j), (i, j)
                head = _scan_head(run)
                assert len(head) <= 11
                tags = {op[0] for e in head for op in e[3:]}
                assert tags <= {"cell", "cx", "cy"}
                recursive += len(head) < run.cost
    assert recursive > 0


def test_udg_offsets_cover_adjacency():
    # adjacent points always lie within grid offset 2 on both axes
    r = gen.random_udg(50, box=10, radius=2, seed=11)
    for i in range(r.n):
        for j in range(r.n):
            if r.adjacent(i, j):
                ca, cb = r.cell(i), r.cell(j)
                assert abs(ca[0] - cb[0]) <= 2 and abs(ca[1] - cb[1]) <= 2


# sign-rank ------------------------------------------------------------------


def test_signrank_exact():
    a, b = gen.random_signrank3(12, 12, seed=5)
    p = SignRankProtocol(a, b)
    for u in range(12):
        for w in range(12):
            assert p.run(u, w).output == p.truth(u, w)


def test_signrank_three_selection_bits():
    a, b = gen.random_signrank3(10, 10, seed=8)
    p = SignRankProtocol(a, b)
    d = p.decomposition
    for u in range(10):
        for w in range(10):
            r = p.run(u, w)
            head = r.events[:3]
            assert [e[0] for e in head] == ["bit", "bit", "bit"]
            assert [e[2] for e in head] == ["A", "B", "B"]
            cls = head[0][1]
            pat = (head[1][1] << 1) | head[2][1]
            assert cls == d.u_class[u] and pat == d.w_pattern[w]
