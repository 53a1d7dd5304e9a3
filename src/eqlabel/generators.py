"""Instance generators for graphs, geometric realizations and scenes.

All randomness flows through random.Random (Mersenne Twister) seeded with a
caller-supplied 64-bit integer, so every family is reproducible from
(parameters, seed) alone.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .geometry import Scene, UdgRealization, dot
from .graphs import BipartiteGraph, Graph, is_connected


# ---------------------------------------------------------------------------
# fixed families


def path_graph(t: int) -> BipartiteGraph:
    """Path on t vertices; even positions go left, odd positions right."""
    if t < 1:
        raise ValueError("need at least one vertex")
    nl = (t + 1) // 2
    nr = t // 2
    edges = set()
    for v in range(t - 1):
        if v % 2 == 0:
            edges.add((v // 2, v // 2))
        else:
            edges.add(((v + 1) // 2, v // 2))
    return BipartiteGraph(nl, nr, frozenset(edges))


def cycle_graph(t: int):
    """Cycle on t vertices: a BipartiteGraph for even t, a Graph otherwise."""
    if t < 3:
        raise ValueError("need at least three vertices")
    if t % 2 == 0:
        g = path_graph(t)
        return BipartiteGraph(
            g.n_left, g.n_right, g.edges | {(0, (t - 1) // 2)}
        )
    edges = {(v, v + 1) for v in range(t - 1)} | {(0, t - 1)}
    return Graph(t, frozenset(edges))


def subdivided_star(s: int, t: int) -> Graph:
    """Star with s legs, each leg a path of t edges: 1 + s*t vertices."""
    if s < 1 or t < 1:
        raise ValueError("need s, t >= 1")
    edges = set()
    for leg in range(s):
        prev = 0
        for step in range(t):
            v = 1 + leg * t + step
            edges.add((min(prev, v), max(prev, v)))
            prev = v
    return Graph(1 + s * t, frozenset(edges))


def biclique(s: int, t: int) -> BipartiteGraph:
    return BipartiteGraph(
        s, t, frozenset((a, b) for a in range(s) for b in range(t))
    )


def half_graph(k: int) -> BipartiteGraph:
    """a_i ~ b_j iff i < j. Chain of length exactly k."""
    return BipartiteGraph(
        k, k, frozenset((i, j) for i in range(k) for j in range(k) if i < j)
    )


# ---------------------------------------------------------------------------
# random graph families


def random_bipartite(nl: int, nr: int, p: float, seed: int) -> BipartiteGraph:
    rng = random.Random(seed)
    edges = {
        (a, b)
        for a in range(nl)
        for b in range(nr)
        if rng.random() < p
    }
    return BipartiteGraph(nl, nr, frozenset(edges))


def random_connected_bipartite(
    nl: int, nr: int, p: float, seed: int, attempts: int = 2000
) -> BipartiteGraph:
    rng = random.Random(seed)
    for _ in range(attempts):
        g = random_bipartite(nl, nr, p, rng.getrandbits(64))
        if is_connected(g):
            return g
    raise RuntimeError("no connected sample found; raise p or attempts")


def random_equivalence(nl: int, nr: int, blocks: int, seed: int) -> BipartiteGraph:
    """Disjoint union of complete bipartite blocks (plus isolated vertices
    when a block misses a side)."""
    rng = random.Random(seed)
    lb = [rng.randrange(blocks) for _ in range(nl)]
    rb = [rng.randrange(blocks) for _ in range(nr)]
    edges = {
        (a, b) for a in range(nl) for b in range(nr) if lb[a] == rb[b]
    }
    return BipartiteGraph(nl, nr, frozenset(edges))


# ---------------------------------------------------------------------------
# geometric families


def random_udg(
    n: int, box: int, radius, seed: int, denom: int = 1000
) -> UdgRealization:
    """n points with rational coordinates in [0, box]^2; pairs at distance
    exactly the radius are resampled away."""
    rng = random.Random(seed)
    r = Fraction(radius)
    r2 = r * r
    pts: list = []
    while len(pts) < n:
        for _ in range(10000):
            q = (
                Fraction(rng.randint(0, box * denom), denom),
                Fraction(rng.randint(0, box * denom), denom),
            )
            if all(
                (q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2 != r2 for p in pts
            ):
                pts.append(q)
                break
        else:
            raise RuntimeError("could not place a point off the radius circle")
    return UdgRealization.make(pts, r)


def random_signrank3(nu: int, nw: int, seed: int, span: int = 9):
    """Integer vector factorization in dimension 3 with no zero last
    a-coordinate and no zero inner product."""
    rng = random.Random(seed)

    def vec():
        return tuple(Fraction(rng.randint(-span, span)) for _ in range(3))

    avs = []
    for _ in range(nu):
        a = vec()
        while a[2] == 0:
            a = vec()
        avs.append(a)
    bvs = []
    for _ in range(nw):
        for _ in range(10000):
            b = vec()
            if all(dot(a, b) != 0 for a in avs):
                bvs.append(b)
                break
        else:
            raise RuntimeError("could not draw a b-vector off all hyperplanes")
    return avs, bvs


def random_halfspace_scene(
    dim: int,
    n_points: int,
    n_halfspaces: int,
    seed: int,
    s: int = 3,
    rich: bool = True,
    interior: bool = True,
    attempts: int = 500,
) -> Scene:
    """Random scene whose incidence graph is K_{s,s}-free in dim 1 and
    K_{2,s}-free in dims 2 and 3.

    All halfspaces but at most one contain <= s-1 points, which already
    rules out s pairwise-common-point halfspaces; the remaining pattern
    (three low-degree halfspaces over one point pair, dims 2 and 3) is
    rejection-sampled away. Thresholds sit strictly between consecutive
    projections, so no point is on a boundary. With `interior`, half of the
    scenes replace the last point by a centroid, leaving the points not in
    convex position.
    """
    from . import oracles
    from .geometry import incidence_graph

    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    if s < 2:
        raise ValueError("need s >= 2")
    grid = 193**dim  # coordinates k/8 for k in -96..96
    if n_points > grid:
        raise ValueError(f"at most {grid} distinct points fit the grid")
    rng = random.Random(seed)
    low_cap = s - 1

    for _ in range(attempts):
        pts = set()
        while len(pts) < n_points:
            pts.add(
                tuple(
                    Fraction(rng.randint(-96, 96), 8) for _ in range(dim)
                )
            )
        points = sorted(pts)
        if (
            interior
            and dim >= 2
            and n_points >= dim + 2
            and rng.random() < 0.5
        ):
            simplex = points[: dim + 1]
            cent = tuple(
                sum(p[i] for p in simplex) / (dim + 1) for i in range(dim)
            )
            if cent not in points[:-1]:
                points[-1] = cent

        halfspaces = []
        for hi in range(n_halfspaces):
            if rich and hi == 0 and n_points >= s:
                k = rng.randint(s, min(2 * s, n_points))
            else:
                k = rng.randint(0, min(low_cap, n_points))
            for _ in range(200):
                w = tuple(Fraction(rng.randint(-5, 5)) for _ in range(dim))
                if all(c == 0 for c in w):
                    continue
                proj = sorted((dot(w, p) for p in points), reverse=True)
                if k == 0:
                    t = proj[0] + 1
                elif k == n_points:
                    t = proj[-1] - 1
                elif proj[k - 1] == proj[k]:
                    continue
                else:
                    t = (proj[k - 1] + proj[k]) / 2
                halfspaces.append((w, t))
                break
            else:
                break
        if len(halfspaces) != n_halfspaces:
            continue

        scene = Scene.make(dim, points, halfspaces)
        g = incidence_graph(scene)
        if g.m == 0:
            continue
        if dim == 1:
            if oracles.has_biclique(g, s, s):
                continue
        else:
            if oracles.has_biclique(g, 2, s):
                continue
        return scene
    raise RuntimeError("scene sampling failed; loosen the parameters")


def _norm_line(p, q) -> tuple:
    """Normalized (a, b, c) with ax + by = c through two distinct points."""
    (px, py), (qx, qy) = p, q
    a = qy - py
    b = px - qx
    c = a * px + b * py
    den = math.lcm(a.denominator, b.denominator, c.denominator)
    ai, bi, ci = int(a * den), int(b * den), int(c * den)
    g = math.gcd(ai, bi, ci)
    ai, bi, ci = ai // g, bi // g, ci // g
    if (ai, bi, ci) < (0, 0, 0) or (ai < 0) or (ai == 0 and bi < 0):
        ai, bi, ci = -ai, -bi, -ci
    return (Fraction(ai), Fraction(bi), Fraction(ci))


def _check_grid(n_points: int, coord: int) -> None:
    """Reject more distinct points than the (coord+1)^2 grid holds."""
    size = (coord + 1) ** 2
    if n_points > size:
        raise ValueError(f"at most {size} distinct points fit the grid")


def random_point_line_scene(n_points: int, n_lines: int, seed: int, coord: int = 12):
    """Points on a small grid plus distinct lines through sampled point
    pairs. Two points determine one line, so the incidence graph is
    K_{2,2}-free by construction. Returns (points, lines)."""
    _check_grid(n_points, coord)
    if n_lines > 0 and n_points < 2:
        raise ValueError("lines through point pairs need at least 2 points")
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n_points:
        pts.add(
            (
                Fraction(rng.randint(0, coord)),
                Fraction(rng.randint(0, coord)),
            )
        )
    points = sorted(pts)
    lines: set = set()
    for _ in range(50 * n_lines):
        if len(lines) == n_lines:
            break
        p, q = rng.sample(points, 2)
        lines.add(_norm_line(p, q))
    return points, sorted(lines)


def random_point_boxes(n_points: int, n_boxes: int, seed: int, coord: int = 12):
    """Points and random half-open boxes on a grid. Returns (points, boxes)."""
    _check_grid(n_points, coord)
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n_points:
        pts.add(
            (
                Fraction(rng.randint(0, coord)),
                Fraction(rng.randint(0, coord)),
            )
        )
    boxes = []
    for _ in range(n_boxes):
        x1, x2 = sorted(rng.sample(range(coord + 2), 2))
        y1, y2 = sorted(rng.sample(range(coord + 2), 2))
        boxes.append(
            (
                (Fraction(x1), Fraction(x2)),
                (Fraction(y1), Fraction(y2)),
            )
        )
    return sorted(pts), boxes
