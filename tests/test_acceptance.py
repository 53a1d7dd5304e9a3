"""Acceptance gate: eight end-to-end criteria, each with a fixed instance
recipe, a hard correctness bar and a wall-clock budget. Every test prints
one PASS line with its measurements; any violation fails the test."""

import math
import random
import time

from eqlabel import generators as gen
from eqlabel.geometry import (
    dot,
    point_box_incidence,
    point_line_incidence,
    signrank3_decompose,
    signrank_graph,
    udg_grid_partition,
    udg_to_signrank4,
    verify_incidence_degeneracy,
)
from eqlabel.graphs import BipartiteGraph, bipartite_complement
from eqlabel.gyarfas import decompose
from eqlabel.labeling import (
    CostCeilingExceeded,
    LabelFile,
    build_labels,
    decode_pair,
)
from eqlabel.oracles import (
    chain_index,
    degeneracy,
    has_biclique,
    has_eat,
    verify_decomposition,
)
from eqlabel.protocol import (
    BipartiteProtocol,
    SignRankProtocol,
    UnitDiskProtocol,
)


def _report(num: int, name: str, elapsed: float, budget: float, detail: str):
    print(f"criterion {num} ({name}): PASS [{detail}; {elapsed:.1f}s < {budget:.0f}s]")


def _connected_instance(rng) -> BipartiteGraph:
    nl = rng.randint(2, 20)
    nr = rng.randint(2, min(20, 40 - nl))
    p = min(0.85, max(rng.choice([0.2, 0.35, 0.6]), 1.8 / min(nl, nr)))
    return gen.random_connected_bipartite(nl, nr, p, seed=rng.getrandbits(32))


def _c2_instance(i: int) -> BipartiteGraph:
    rng = random.Random(1000 + i)
    if i < 80:
        nl = rng.randint(2, 7)
        nr = rng.randint(2, min(7, 14 - nl))
    else:
        nl = rng.randint(2, 12)
        nr = rng.randint(2, 12)
    p = min(0.85, max(rng.choice([0.25, 0.4, 0.6]), 1.8 / min(nl, nr)))
    return gen.random_connected_bipartite(nl, nr, p, seed=rng.getrandbits(32))


def _c3_instance(i: int) -> BipartiteGraph:
    return gen.random_equivalence(
        4 + i % 8, 4 + (i * 3) % 8, 2 + i % 4, seed=2000 + i
    )


def test_criterion_1_decomposition_validity():
    budget = 10.0
    t0 = time.perf_counter()
    for i in range(500):
        rng = random.Random(9000 + i)
        g = _connected_instance(rng)
        assert g.n <= 40
        assert verify_decomposition(g, decompose(g)) == (), f"instance {i}"
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(1, "decomposition validity", elapsed, budget,
            "500 connected bipartite graphs, n <= 40, all five clauses hold")


def test_criterion_2_protocol_exactness():
    budget = 120.0
    t0 = time.perf_counter()
    worst_cost = 0
    depth_checked = 0
    for i in range(200):
        g = _c2_instance(i)
        assert g.n <= 24
        p = BipartiteProtocol(g)
        max_depth = 0
        for u in range(g.n):
            for w in range(g.n):
                r = p.run(u, w)
                assert r.output == p.truth(u, w), f"instance {i} pair {u},{w}"
                worst_cost = max(worst_cost, r.cost)
                max_depth = max(max_depth, r.depth)
        if g.n <= 14:
            assert max_depth <= chain_index(g) + 1, f"instance {i}"
            depth_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(2, "protocol exactness", elapsed, budget,
            f"200 graphs all ordered pairs, 0 mismatches, worst cost "
            f"{worst_cost}, depth bound checked on {depth_checked} instances")


def test_criterion_3_equivalence_base_case():
    budget = 5.0
    t0 = time.perf_counter()
    worst = 0
    for i in range(50):
        g = _c3_instance(i)
        p = BipartiteProtocol(g)
        for u in range(g.n):
            for w in range(g.n):
                r = p.run(u, w)
                assert r.output == p.truth(u, w)
                worst = max(worst, r.cost)
    assert worst <= 2
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(3, "equivalence base case", elapsed, budget,
            f"50 equivalence graphs, max cost {worst} <= 2")


def test_criterion_4_signrank3_pipeline():
    budget = 300.0
    t0 = time.perf_counter()
    eat_checked = 0
    eat_skipped = 0
    for i in range(50):
        a, b = gen.random_signrank3(24, 24, seed=4000 + i)
        dec = signrank3_decompose(a, b)
        g = signrank_graph(a, b)
        assert len(dec.pieces) <= 8
        seen = set()
        for key, (scene, uids, wids) in dec.pieces.items():
            pg = dec.piece_graph(key)
            for r, u in enumerate(uids):
                for c, w in enumerate(wids):
                    assert (u, w) not in seen
                    seen.add((u, w))
                    assert pg.has_edge(r, c) == g.has_edge(u, w), f"instance {i}"
            if len(uids) + len(wids) <= 30:
                assert not has_eat(pg), f"instance {i} piece {key}"
                assert not has_eat(bipartite_complement(pg)), \
                    f"instance {i} piece {key} complement"
                eat_checked += 1
            else:
                eat_skipped += 1
        assert len(seen) == 24 * 24
        p = SignRankProtocol(a, b)
        for u in range(24):
            for w in range(24):
                r = p.run(u, w)
                assert r.output == p.truth(u, w), f"instance {i} pair {u},{w}"
                head = r.events[:3]
                assert [e[0] for e in head] == ["bit", "bit", "bit"]
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(4, "sign-rank-3 pipeline", elapsed, budget,
            f"50 factorizations 24 per side, pieces tile exactly, "
            f"{eat_checked} pieces EAT-free both ways ({eat_skipped} over "
            f"the 30-vertex cap), all pairs exact with 3 selection bits")


def test_criterion_5_udg_pipeline():
    budget = 300.0
    t0 = time.perf_counter()
    eat_checked = 0
    same_cell = 0
    offsets = [
        (dx, dy)
        for dx in range(-2, 3)
        for dy in range(-2, 3)
        if (dx, dy) != (0, 0)
    ]
    for i in range(50):
        r = gen.random_udg(60, box=14, radius=2, seed=5000 + i)
        p = UnitDiskProtocol(r)
        cells = udg_grid_partition(r)
        for a in range(60):
            for b in range(60):
                run = p.run(a, b)
                assert run.output == p.truth(a, b), f"instance {i} pair {a},{b}"
                if r.cell(a) == r.cell(b):
                    assert run.cost == 1 and run.output == 1
                    same_cell += 1
        sigma, psi = udg_to_signrank4(r)
        rr = r.radius ** 2
        for a in range(60):
            pa = r.points[a]
            for b in range(60):
                pb = r.points[b]
                d2 = (pa[0] - pb[0]) ** 2 + (pa[1] - pb[1]) ** 2
                assert dot(sigma[a], psi[b]) == rr - d2
        for ca in sorted(cells):
            for dx, dy in offsets:
                cb = (ca[0] + dx, ca[1] + dy)
                if cb not in cells or cb <= ca:
                    continue
                xs, ys = cells[ca], cells[cb]
                if len(xs) + len(ys) > 30:
                    continue
                bc = BipartiteGraph.from_edges(
                    len(xs), len(ys),
                    [
                        (ii, jj)
                        for ii, x in enumerate(xs)
                        for jj, y in enumerate(ys)
                        if not r.adjacent(x, y)
                    ],
                )
                assert not has_eat(bc), f"instance {i} cells {ca} {cb}"
                eat_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(5, "unit disk pipeline", elapsed, budget,
            f"50 realizations n=60 r=2, all pairs exact, {same_cell} "
            f"same-cell shortcuts, sign lift identity exact, {eat_checked} "
            f"complement pieces EAT-free")


def _size_law_ok(fam) -> bool:
    lg = max(1, math.ceil(math.log2(fam.n)))
    return fam.max_label_bits <= (2 ** fam.cost) * (2 * lg + 2) + 64


def test_criterion_6_labeling():
    budget = 120.0
    t0 = time.perf_counter()

    labeled = 0
    skipped = 0
    graphs = [_c2_instance(i) for i in range(200)]
    graphs += [_c3_instance(i) for i in range(50)]
    graphs += [
        signrank_graph(*gen.random_signrank3(24, 24, seed=4000 + i))
        for i in range(50)
    ]
    for g in graphs:
        p = BipartiteProtocol(g)
        try:
            fam = build_labels(p.run, g.n, ceiling=12)
        except CostCeilingExceeded:
            skipped += 1
            continue
        assert _size_law_ok(fam)
        f = LabelFile(fam.data)
        for u in range(g.n):
            for w in range(g.n):
                assert decode_pair(f, u, w) == p.truth(u, w)
        labeled += 1

    eq_ratios = []
    for n in (64, 128, 256, 512):
        g = gen.random_equivalence(n // 2, n - n // 2, max(2, n // 16), seed=n)
        p = BipartiteProtocol(g)
        fam = build_labels(p.run, g.n, ceiling=12)
        assert _size_law_ok(fam)
        f = LabelFile(fam.data)
        for u in range(g.n):
            for w in range(g.n):
                assert decode_pair(f, u, w) == p.truth(u, w)
        eq_ratios.append(fam.max_label_bits / math.ceil(math.log2(n)))
    eq_spread = max(eq_ratios) / min(eq_ratios)
    assert eq_spread <= 2.0

    udg_ratios = []
    for n, box in ((64, 8), (128, 12), (256, 16), (512, 23)):
        r = gen.random_udg(n, box=box, radius=2, seed=600 + n)
        p = UnitDiskProtocol(r)
        fam = build_labels(p.run, r.n, ceiling=64)
        assert _size_law_ok(fam)
        f = LabelFile(fam.data)
        for u in range(n):
            for w in range(n):
                assert decode_pair(f, u, w) == p.truth(u, w)
        udg_ratios.append(fam.max_label_bits / math.ceil(math.log2(n)))
    udg_spread = max(udg_ratios) / min(udg_ratios)
    assert udg_spread <= 2.0

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(6, "labeling", elapsed, budget,
            f"{labeled} instances with cost <= 12 decode exactly "
            f"({skipped} above the cap), every udg pair decodes exactly, "
            f"size law holds everywhere, "
            f"bits-per-log ratio spread {eq_spread:.2f} (equivalence) and "
            f"{udg_spread:.2f} (udg) <= 2 across N=64..512")


def test_criterion_7_incidence_degeneracy_bounds():
    budget = 60.0
    t0 = time.perf_counter()
    worst = {}
    caratheodory = 0
    for dim, bound in ((1, 2), (2, 6), (3, 10)):
        worst[dim] = 0
        for i in range(100):
            sc = gen.random_halfspace_scene(
                dim, 8 + i % 9, 4 + i % 7, seed=7000 + 100 * dim + i, s=3
            )
            rep = verify_incidence_degeneracy(sc, 3)
            assert rep.ok and rep.degeneracy <= bound, f"dim {dim} instance {i}"
            worst[dim] = max(worst[dim], rep.degeneracy)
            caratheodory += rep.caratheodory_checked
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(7, "incidence degeneracy bounds", elapsed, budget,
            f"100 scenes per dimension, worst degeneracy "
            f"{worst[1]}/{worst[2]}/{worst[3]} vs bounds 2/6/10, "
            f"{caratheodory} non-convex instances hit the residual check")


def test_criterion_8_incidence_hierarchy_plumbing():
    budget = 60.0
    t0 = time.perf_counter()
    for i in range(100):
        pts, lines = gen.random_point_line_scene(
            10 + i % 12, 5 + i % 9, seed=8000 + i
        )
        g = point_line_incidence(pts, lines)
        assert not has_biclique(g, 2, 2), f"instance {i}"
    box_edges = []
    box_degs = []
    for i in range(100):
        pts, boxes = gen.random_point_boxes(
            10 + i % 12, 5 + i % 9, seed=8500 + i
        )
        g = point_box_incidence(pts, boxes)
        box_edges.append(g.m)
        box_degs.append(degeneracy(g)[0])
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(8, "incidence hierarchy plumbing", elapsed, budget,
            f"100 point-line instances K_2,2-free; point-box measurement: "
            f"max edges {max(box_edges)}, max degeneracy {max(box_degs)} "
            f"(measured, no bound asserted)")
