"""Ground truth for the benchmark, written without the library's code.

Everything here works from the instance text the benchmark wrote and from
exact integer or Fraction arithmetic of its own: adjacency of unit-disk
points and of sign-rank-3 vectors, point-halfspace incidence, min-degree
peeling, and a Caratheodory convex-position test over affinely independent
subsets with integer determinants. The checkers compare the library's
answers with these and return a list of problems (empty when all agree).

Run this file directly to self-test the checkers: each is handed one
corrupted answer and must reject it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# instance text, parsed here so that no library parser is trusted


def _rows(text: str, tag: str) -> list:
    out = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == tag:
            out.append(tuple(Fraction(x) for x in parts[1:]))
    return out


def udg_adjacency(text: str) -> bytearray:
    """Row-major n*n matrix: 1 where the squared distance is below the
    squared radius. A point is adjacent to itself, as in the library."""
    head = text.split(None, 3)
    r2 = Fraction(head[2]) ** 2
    pts = _rows(text, "p")
    n = len(pts)
    adj = bytearray(n * n)
    for i, (xi, yi) in enumerate(pts):
        for j, (xj, yj) in enumerate(pts):
            if i == j or (xi - xj) ** 2 + (yi - yj) ** 2 < r2:
                adj[i * n + j] = 1
    return adj


def signrank_adjacency(text: str) -> bytearray:
    """Matrix over ids 0..nu-1 (a side) then nu..nu+nw-1 (b side): 1 where
    the integer inner product is positive. Same-side pairs never touch."""
    a = [tuple(int(c) for c in v) for v in _rows(text, "a")]
    b = [tuple(int(c) for c in v) for v in _rows(text, "b")]
    return _bipartite_matrix(
        len(a), len(b),
        lambda u, w: a[u][0] * b[w][0] + a[u][1] * b[w][1] + a[u][2] * b[w][2] > 0,
    )


def _bipartite_matrix(nl: int, nr: int, edge) -> bytearray:
    n = nl + nr
    adj = bytearray(n * n)
    for u in range(nl):
        for w in range(nr):
            if edge(u, w):
                adj[u * n + nl + w] = 1
                adj[(nl + w) * n + u] = 1
    return adj


def scene_parts(text: str) -> tuple:
    """(dim, points, halfspaces) of a scene file; a halfspace is (w, t)."""
    dim = int(text.split(None, 2)[1])
    pts = _rows(text, "p")
    hs = [(h[:dim], h[dim]) for h in _rows(text, "h")]
    return dim, pts, hs


def incidence_adjacency(text: str) -> bytearray:
    """Matrix over points (ids first) and halfspaces: 1 where the point lies
    strictly inside the halfspace."""
    _, pts, hs = scene_parts(text)
    return _bipartite_matrix(
        len(pts), len(hs),
        lambda p, h: sum(x * y for x, y in zip(hs[h][0], pts[p])) > hs[h][1],
    )


# ---------------------------------------------------------------------------
# min-degree peeling


def peel(adj: bytearray, n: int) -> tuple:
    """(degeneracy, order, residual): repeatedly remove a vertex of least
    remaining degree, ties to the smallest id."""
    nbrs = [{w for w in range(n) if adj[v * n + w] and w != v} for v in range(n)]
    alive = set(range(n))
    order, residual = [], []
    for _ in range(n):
        v = min(alive, key=lambda x: (len(nbrs[x]), x))
        order.append(v)
        residual.append(len(nbrs[v]))
        alive.discard(v)
        for w in nbrs[v]:
            nbrs[w].discard(v)
    return max(residual, default=0), tuple(order), tuple(residual)


# ---------------------------------------------------------------------------
# exact convex position


def _det(m: list) -> int:
    k = len(m)
    if k == 0:
        return 1
    if k == 1:
        return m[0][0]
    if k == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(k)
    )


def _rank_basis(vecs: list, dim: int) -> tuple:
    """(rank, pivot coordinates) of integer vectors. Projecting the span
    onto the pivot coordinates is one to one."""
    rows = [list(v) for v in vecs]
    rank = 0
    cols = []
    for c in range(dim):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f, g = rows[i][c], rows[rank][c]
                rows[i] = [g * x - f * y for x, y in zip(rows[i], rows[rank])]
        cols.append(c)
        rank += 1
    return rank, cols


def _in_hull(p: tuple, qs: list) -> bool:
    """Exact membership of integer point p in the hull of integer points qs.
    Reduces to the affine hull of qs, then searches full simplices: a
    full-dimensional hull is covered by the simplices on its points."""
    q0 = qs[0]
    dim = len(p)
    diffs = [tuple(a - b for a, b in zip(q, q0)) for q in qs[1:]]
    pd = tuple(a - b for a, b in zip(p, q0))
    r, cols = _rank_basis(diffs, dim)
    if _rank_basis(diffs + [pd], dim)[0] > r:
        return False
    if r == 0:
        return True
    proj = [tuple(q[c] for c in cols) for q in qs]
    pp = tuple(p[c] for c in cols)
    for sub in itertools.combinations(proj, r + 1):
        base = sub[0]
        m0 = [[v[c] - base[c] for c in range(r)] for v in sub[1:]]
        d0 = _det(m0)
        if d0 == 0:
            continue
        inside = True
        for j in range(r + 1):
            verts = list(sub)
            verts[j] = pp
            b = verts[0]
            dj = _det([[v[c] - b[c] for c in range(r)] for v in verts[1:]])
            if dj * d0 < 0:
                inside = False
                break
        if inside:
            return True
    return False


def in_convex_position(points) -> bool:
    """True iff no point lies in the convex hull of the others."""
    den = 1
    for p in points:
        for c in p:
            den = math.lcm(den, Fraction(c).denominator)
    pts = [tuple(int(Fraction(c) * den) for c in p) for p in points]
    for i, p in enumerate(pts):
        if _in_hull(p, pts[:i] + pts[i + 1:]):
            return False
    return True


# ---------------------------------------------------------------------------
# checkers


def check_pairs(name: str, answers, adj: bytearray, n: int) -> list:
    """answers: row-major +1/-1 per ordered pair."""
    bad = [i for i in range(n * n) if (answers[i] > 0) != bool(adj[i])]
    if not bad:
        return []
    u, w = divmod(bad[0], n)
    return [f"{name}: {len(bad)} wrong pairs, first ({u}, {w})"]


DEG_FACTOR = {1: 1, 2: 3, 3: 5}


def check_report(name: str, rep, text: str, s: int, convex: bool) -> list:
    """Compare a DegeneracyReport with the benchmark's own peeling and
    convex-position reference for the scene in `text`."""
    dim, pts, hs = scene_parts(text)
    adj = incidence_adjacency(text)
    n = len(pts) + len(hs)
    k, order, residual = peel(adj, n)
    out = []
    edges = sum(adj) // 2
    if rep.edges != edges:
        out.append(f"{name}: {rep.edges} edges, expected {edges}")
    if rep.degeneracy != k or tuple(rep.order) != order:
        out.append(f"{name}: degeneracy {rep.degeneracy}, expected {k}")
    if k > DEG_FACTOR[dim] * (s - 1):
        out.append(f"{name}: degeneracy {k} above {DEG_FACTOR[dim]}(s-1)")
    tested = dim >= 2 and len(pts) >= dim + 2
    if tested and rep.convex_position != convex:
        out.append(f"{name}: convex {rep.convex_position}, expected {convex}")
    want_car = tested and not convex
    if rep.caratheodory_checked != want_car:
        out.append(f"{name}: caratheodory checked {rep.caratheodory_checked}")
    elif want_car:
        first = next(i for i, v in enumerate(order) if v < len(pts))
        if rep.caratheodory_degree != residual[first]:
            out.append(f"{name}: caratheodory degree {rep.caratheodory_degree}, "
                       f"expected {residual[first]}")
        if residual[first] > (dim + 1) * (s - 1):
            out.append(f"{name}: caratheodory degree above (d+1)(s-1)")
    if not rep.ok:
        out.append(f"{name}: report not ok: {rep.notes}")
    return out


# ---------------------------------------------------------------------------
# self-test


def self_test() -> list:
    """Hand every checker one corrupted answer; return the checkers that
    failed to reject theirs (empty when all work)."""
    from dataclasses import dataclass, replace

    @dataclass(frozen=True)
    class Report:
        ok: bool
        edges: int
        degeneracy: int
        order: tuple
        convex_position: bool
        caratheodory_checked: bool
        caratheodory_degree: int
        notes: tuple = ()

    missed = []
    udg = "udg 3 2\np 0 0\np 1 0\np 5 5\n"
    adj = udg_adjacency(udg)
    good = [1 if a else -1 for a in adj]
    if check_pairs("udg", good, adj, 3):
        missed.append("udg truth rejects the right answer")
    flipped = list(good)
    flipped[1] = -flipped[1]
    if not check_pairs("udg", flipped, adj, 3):
        missed.append("flipped udg adjacency accepted")

    sr = "signrank3 1 2\na 1 2 3\nb 1 0 0\nb -1 0 0\n"
    adj = signrank_adjacency(sr)
    good = [1 if a else -1 for a in adj]
    if good[0 * 3 + 1] != 1 or good[0 * 3 + 2] != -1 or good[0] != -1:
        missed.append("signrank truth wrong")
    flipped = list(good)
    flipped[0] = 1
    if not check_pairs("signrank3", flipped, adj, 3):
        missed.append("same-side signrank adjacency accepted")

    if not in_convex_position([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        missed.append("tetrahedron called non-convex")
    if in_convex_position([(0, 1, 0), (0, 4, 0), (1, 3, 0), (2, 1, 0), (3, 3, 0)]):
        missed.append("coplanar set with an interior point called convex")
    if in_convex_position([(0, 0), (1, 0), (3, 0)]):
        missed.append("collinear middle point missed")

    scene = ("scene 2 4 2\np 0 0\np 4 0\np 0 4\np 1 1\n"
             "h 1 0 1/2\nh 0 1 7/2\n")
    adj = incidence_adjacency(scene)
    k, order, residual = peel(adj, 6)
    first = next(i for i, v in enumerate(order) if v < 4)
    rep = Report(True, sum(adj) // 2, k, order, False, True, residual[first])
    if check_report("scene", rep, scene, 3, False):
        missed.append("scene checker rejects the right report")
    for wrong in (
        replace(rep, degeneracy=k + 1),
        replace(rep, convex_position=True),
        replace(rep, caratheodory_degree=residual[first] + 1),
        replace(rep, edges=rep.edges + 1),
        replace(rep, ok=False),
    ):
        if not check_report("scene", wrong, scene, 3, False):
            missed.append(f"corrupted report accepted: {wrong}")
    return missed


if __name__ == "__main__":
    problems = self_test()
    for p in problems:
        print("MISSED:", p)
    print("self-test", "failed" if problems else "ok")
    raise SystemExit(1 if problems else 0)
