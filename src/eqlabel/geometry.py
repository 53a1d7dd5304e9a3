"""Exact rational geometry: point-halfspace scenes, the sign-rank-3 reduction
pipeline, unit-disk realizations with their grid partition, and the
incidence-degeneracy checks.

Everything is exact, with no epsilon anywhere. Coordinates are
fractions.Fraction; the convex-position test scales a point set to integers
and decides from integer orientation signs, with no Fraction elimination.
A halfspace is a pair (normal, threshold) and a point p lies in it when
<normal, p> > threshold. Scenes enforce globally that no point lies on a
halfspace boundary, so the strict and closed readings coincide.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graphs import BipartiteGraph, Graph
from . import oracles


def _frac_vec(v) -> tuple:
    return tuple(Fraction(x) for x in v)


def dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


class DegenerateSceneError(ValueError):
    """A point lies exactly on a halfspace boundary."""


@dataclass(frozen=True)
class Scene:
    """Points and halfspaces in Q^dim. Membership is <w, p> > t."""

    dim: int
    points: tuple
    halfspaces: tuple  # tuples (normal, threshold)

    @staticmethod
    def make(dim: int, points, halfspaces) -> "Scene":
        if dim not in (1, 2, 3, 4):
            raise ValueError("dim must be 1..4")
        pts = tuple(_frac_vec(p) for p in points)
        hs = tuple((_frac_vec(w), Fraction(t)) for w, t in halfspaces)
        for p in pts:
            if len(p) != dim:
                raise ValueError("point dimension mismatch")
        for w, _ in hs:
            if len(w) != dim:
                raise ValueError("normal dimension mismatch")
        for pi, p in enumerate(pts):
            for hi, (w, t) in enumerate(hs):
                if dot(w, p) == t:
                    raise DegenerateSceneError(
                        f"point {pi} on boundary of halfspace {hi}"
                    )
        return Scene(dim, pts, hs)

    def contains(self, hi: int, pi: int) -> bool:
        w, t = self.halfspaces[hi]
        return dot(w, self.points[pi]) > t


def incidence_graph(scene: Scene) -> BipartiteGraph:
    """Bipartite graph: left = points, right = halfspaces, edge on membership."""
    edges = set()
    for pi, p in enumerate(scene.points):
        for hi, (w, t) in enumerate(scene.halfspaces):
            if dot(w, p) > t:
                edges.add((pi, hi))
    return BipartiteGraph(len(scene.points), len(scene.halfspaces), frozenset(edges))


# ---------------------------------------------------------------------------
# sign-rank pipeline


def sign_matrix(a_vectors, b_vectors):
    """Matrix of signs of <a(u), b(w)> as +1/-1. Zero products are an error."""
    a_vectors = [_frac_vec(a) for a in a_vectors]
    b_vectors = [_frac_vec(b) for b in b_vectors]
    out = []
    for a in a_vectors:
        row = []
        for b in b_vectors:
            s = dot(a, b)
            if s == 0:
                raise ValueError("zero inner product")
            row.append(1 if s > 0 else -1)
        out.append(row)
    return out


def signrank_graph(a_vectors, b_vectors) -> BipartiteGraph:
    """Bipartite graph with an edge where the inner product is positive."""
    m = sign_matrix(a_vectors, b_vectors)
    edges = {
        (u, w)
        for u, row in enumerate(m)
        for w, s in enumerate(row)
        if s > 0
    }
    return BipartiteGraph(len(a_vectors), len(b_vectors), frozenset(edges))


def signrank_split(a_vectors, b_vectors):
    """Split a rank-d sign factorization into two point-halfspace scenes in
    dimension d-1, one per sign of the last a-coordinate.

    Returns (scene_pos, u_pos, scene_neg, u_neg) where u_pos/u_neg are the
    original a-side indices carried by each scene, in order. The b-side keeps
    its full index order in both scenes. Membership in scene k equals the
    sign test <a(u), b(w)> > 0 for u in that class.
    """
    a_vectors = [_frac_vec(a) for a in a_vectors]
    b_vectors = [_frac_vec(b) for b in b_vectors]
    if not a_vectors or not b_vectors:
        raise ValueError("empty factorization")
    d = len(a_vectors[0])
    if d < 2:
        raise ValueError("need dimension at least 2")
    for u, a in enumerate(a_vectors):
        if a[d - 1] == 0:
            raise ValueError(f"a({u}) has zero last coordinate")
    u_pos = [u for u, a in enumerate(a_vectors) if a[d - 1] > 0]
    u_neg = [u for u, a in enumerate(a_vectors) if a[d - 1] < 0]

    def reduced(u):
        a = a_vectors[u]
        s = abs(a[d - 1])
        return tuple(c / s for c in a[: d - 1])

    hs_pos = [(b[: d - 1], -b[d - 1]) for b in b_vectors]
    hs_neg = [(b[: d - 1], b[d - 1]) for b in b_vectors]
    scene_pos = Scene.make(d - 1, [reduced(u) for u in u_pos], hs_pos)
    scene_neg = Scene.make(d - 1, [reduced(u) for u in u_neg], hs_neg)
    return scene_pos, tuple(u_pos), scene_neg, tuple(u_neg)


def normal_sign_pattern(w) -> int:
    """Bit i set iff coordinate i of the normal is >= 0."""
    p = 0
    for i, c in enumerate(w):
        if c >= 0:
            p |= 1 << i
    return p


def positive_partition(scene: Scene) -> dict:
    """Group halfspaces by the sign pattern of their normals.

    Within a group all pairwise normal dot products are >= 0. Returns
    {pattern: (Scene, halfspace index tuple)} with all points kept.
    """
    groups = {}
    for hi, (w, t) in enumerate(scene.halfspaces):
        groups.setdefault(normal_sign_pattern(w), []).append(hi)
    out = {}
    for pat in sorted(groups):
        his = tuple(groups[pat])
        sub = Scene.make(scene.dim, scene.points, [scene.halfspaces[h] for h in his])
        out[pat] = (sub, his)
    return out


@dataclass(frozen=True)
class SignRank3Decomposition:
    """Mixed piece decomposition of a rank-3 sign factorization.

    The a-side splits in two by the sign of the last coordinate, the b-side
    in four by the sign pattern of the reduced normal. A piece is keyed
    (u_class, w_pattern) with u_class in {0: positive last coord, 1: negative}
    and holds the dim-2 scene realizing exactly that block of the matrix.
    """

    a_vectors: tuple
    b_vectors: tuple
    u_class: tuple  # per u: 0 or 1
    w_pattern: tuple  # per w: 0..3
    pieces: dict  # (u_class, w_pattern) -> (Scene, u_ids, w_ids)

    def piece_graph(self, key) -> BipartiteGraph:
        scene, _, _ = self.pieces[key]
        return incidence_graph(scene)


def signrank3_decompose(a_vectors, b_vectors) -> SignRank3Decomposition:
    """Split + positive partition in one step: at most 8 pieces, each a
    positive point-halfplane scene, together tiling the full sign matrix."""
    a_vectors = tuple(_frac_vec(a) for a in a_vectors)
    b_vectors = tuple(_frac_vec(b) for b in b_vectors)
    if any(len(a) != 3 for a in a_vectors) or any(len(b) != 3 for b in b_vectors):
        raise ValueError("vectors must have dimension 3")
    scene_pos, u_pos, scene_neg, u_neg = signrank_split(a_vectors, b_vectors)
    uclass = [0] * len(a_vectors)
    for u in u_neg:
        uclass[u] = 1
    wpat = [normal_sign_pattern(b[:2]) for b in b_vectors]

    pieces = {
        (cls, p): (sub, uids, wids)
        for cls, (scene, uids) in ((0, (scene_pos, u_pos)), (1, (scene_neg, u_neg)))
        for p, (sub, wids) in positive_partition(scene).items()
    }
    return SignRank3Decomposition(
        a_vectors, b_vectors, tuple(uclass), tuple(wpat), pieces
    )


# ---------------------------------------------------------------------------
# unit disk realizations


@dataclass(frozen=True)
class UdgRealization:
    """Points in Q^2 with adjacency = Euclidean distance strictly below the
    radius. Pairs at distance exactly the radius are rejected up front."""

    points: tuple
    radius: Fraction

    @staticmethod
    def make(points, radius=2) -> "UdgRealization":
        pts = tuple(_frac_vec(p) for p in points)
        r = Fraction(radius)
        if r <= 0:
            raise ValueError("radius must be positive")
        r2 = r * r
        real = UdgRealization(pts, r)
        # points at distance exactly r sit in grid cells (side r/2) at most
        # 2 apart on each axis, so only those pairs are checked
        members = udg_grid_partition(real)
        cell_of = {i: c for c, ids in members.items() for i in ids}
        for i, p in enumerate(pts):
            cx, cy = cell_of[i]
            hits = [
                j
                for dx in range(-2, 3)
                for dy in range(-2, 3)
                for j in members.get((cx + dx, cy + dy), ())
                if j > i and _dist2(p, pts[j]) == r2
            ]
            if hits:
                raise DegenerateSceneError(
                    f"points {i},{min(hits)} at distance exactly the radius"
                )
        return real

    @property
    def n(self) -> int:
        return len(self.points)

    def adjacent(self, i: int, j: int) -> bool:
        if i == j:
            return True
        return _dist2(self.points[i], self.points[j]) < self.radius * self.radius

    def cell(self, i: int) -> tuple:
        """Grid cell of side radius/2 containing point i."""
        s = self.radius / 2
        x, y = self.points[i]
        return (math.floor(x / s), math.floor(y / s))


def _dist2(p, q) -> Fraction:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def unit_disk_graph(r: UdgRealization) -> Graph:
    edges = set()
    for i in range(r.n):
        for j in range(i + 1, r.n):
            if r.adjacent(i, j):
                edges.add((i, j))
    return Graph(r.n, frozenset(edges))


def udg_grid_partition(r: UdgRealization) -> dict:
    """Cell -> sorted tuple of point ids. Two points in one cell are always
    adjacent (cell diameter r/sqrt(2) < r); adjacent points sit within grid
    offset -2..2 in each axis."""
    cells = {}
    for i in range(r.n):
        cells.setdefault(r.cell(i), []).append(i)
    return {c: tuple(sorted(v)) for c, v in sorted(cells.items())}


def udg_to_signrank4(r: UdgRealization):
    """Rank-4 sign lift: sigma(v) = (-1, 2x, 2y, -x^2-y^2) and
    psi(v) = (x^2+y^2-r^2, x, y, 1) satisfy
    <sigma(a), psi(b)> = r^2 - dist(a,b)^2, so the sign encodes adjacency."""
    r2 = r.radius * r.radius
    sigma = []
    psi = []
    for (x, y) in r.points:
        sigma.append((Fraction(-1), 2 * x, 2 * y, -(x * x) - y * y))
        psi.append((x * x + y * y - r2, x, y, Fraction(1)))
    return sigma, psi


# ---------------------------------------------------------------------------
# incidence degeneracy bounds


def in_convex_position(points, dim: int) -> bool:
    """True iff no point lies in the closed convex hull of the others, so a
    point on the others' boundary, or a repeated point, means False.

    Exact, in integers: the points are scaled by the lcm of their
    denominators and projected one to one onto the pivot coordinates of
    their affine hull, of rank r. Every (r+1)-subset's orientation sign is
    computed once; a point lies in the others' hull iff it lies in a closed
    nondegenerate simplex on r+1 of them (Caratheodory), which the signs of
    that simplex with one vertex replaced by the point decide."""
    fracs = [[Fraction(p[c]) for c in range(dim)] for p in points]
    den = math.lcm(1, *(x.denominator for p in fracs for x in p))
    pts = [tuple(int(x * den) for x in p) for p in fracs]
    n = len(pts)
    if n <= 1:
        return True
    cols = _affine_pivots(pts, dim)
    proj = [tuple(p[c] for c in cols) for p in pts]
    # sign of each sorted (r+1)-subset, keyed by its bitmask of point indices
    orient = {}
    simplices = []
    for sub in itertools.combinations(range(n), len(cols) + 1):
        mask = sum(1 << k for k in sub)
        orient[mask] = sign = _orientation([proj[k] for k in sub])
        if sign:
            simplices.append((sub, mask, sign))
    for i in range(n):
        bit = 1 << i
        for sub, mask, sign in simplices:
            if mask & bit:
                continue
            # replacing v = sub[j] by i and sorting moves i from position j
            # to position below - (v < i); an odd shift flips the table sign
            below = sum(1 for v in sub if v < i)
            for j, v in enumerate(sub):
                s = orient[mask ^ (1 << v) | bit]
                if (j - below + (v < i)) % 2:
                    s = -s
                if s * sign < 0:
                    break
            else:
                return False
    return True


def _affine_pivots(pts, dim: int) -> list:
    """Pivot coordinates of the differences pts[k] - pts[0], found by
    fraction-free elimination; projecting the affine hull onto them is one
    to one."""
    rows = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    cols = []
    for c in range(dim):
        piv = next((r for r in rows if r[c]), None)
        if piv is None:
            continue
        rows = [
            [piv[c] * x - r[c] * y for x, y in zip(r, piv)]
            for r in rows if r is not piv
        ]
        cols.append(c)
    return cols


def _orientation(verts) -> int:
    """Sign of det[v_k - v_0] over integer points v_0..v_r in Z^r."""
    base = verts[0]
    m = [[a - b for a, b in zip(v, base)] for v in verts[1:]]
    d = _det(m)
    return (d > 0) - (d < 0)


def _det(m) -> int:
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
        for j in range(k) if m[0][j]
    )


@dataclass(frozen=True)
class DegeneracyReport:
    ok: bool
    dim: int
    s: int
    bound: int
    degeneracy: int
    order: tuple
    edges: int
    convex_position: bool
    caratheodory_checked: bool
    caratheodory_degree: int
    caratheodory_bound: int
    notes: tuple


def verify_incidence_degeneracy(scene: Scene, s: int) -> DegeneracyReport:
    """Check the forbidden-biclique degeneracy bounds on a scene's incidence
    graph: K_{s,s}-free in dim 1 gives degeneracy <= s-1; K_{2,s}-free in
    dims 2 and 3 gives 3(s-1) and 5(s-1). When the points are not in convex
    position (dims >= 2), the first point eliminated by the min-degree peel
    must have residual degree <= (dim+1)(s-1)."""
    g = incidence_graph(scene)
    d = scene.dim
    notes = []
    if d == 1:
        if oracles.has_biclique(g, s, s):
            raise ValueError(f"scene contains K_{{{s},{s}}}")
        bound = s - 1
    elif d in (2, 3):
        if oracles.has_biclique(g, 2, s):
            raise ValueError(f"scene contains K_{{2,{s}}}")
        bound = (3 if d == 2 else 5) * (s - 1)
    else:
        raise ValueError("degeneracy bounds cover dims 1..3")
    k, order, residual = oracles.degeneracy_with_residuals(g)
    ok = k <= bound
    convex = True
    car_checked = False
    car_deg = -1
    car_bound = (d + 1) * (s - 1)
    if d >= 2 and len(scene.points) >= d + 2:
        convex = in_convex_position(scene.points, d)
        if not convex:
            car_checked = True
            first_point = next(
                i for i, v in enumerate(order) if v < len(scene.points)
            )
            car_deg = residual[first_point]
            if car_deg > car_bound:
                ok = False
                notes.append("caratheodory degree bound violated")
    if k > bound:
        notes.append("degeneracy bound violated")
    return DegeneracyReport(
        ok, d, s, bound, k, tuple(order), g.m, convex,
        car_checked, car_deg, car_bound, tuple(notes),
    )


# ---------------------------------------------------------------------------
# point-box and point-line incidences


def point_box_incidence(points, boxes) -> BipartiteGraph:
    """Boxes are ((x1, x2), (y1, y2)), membership half-open:
    x1 <= x < x2 and y1 <= y < y2."""
    pts = [_frac_vec(p) for p in points]
    bxs = [((Fraction(b[0][0]), Fraction(b[0][1])),
            (Fraction(b[1][0]), Fraction(b[1][1]))) for b in boxes]
    edges = set()
    for pi, (x, y) in enumerate(pts):
        for bi, ((x1, x2), (y1, y2)) in enumerate(bxs):
            if x1 <= x < x2 and y1 <= y < y2:
                edges.add((pi, bi))
    return BipartiteGraph(len(pts), len(bxs), frozenset(edges))


def point_line_incidence(points, lines) -> BipartiteGraph:
    """Lines are (a, b, c) meaning ax + by = c with (a, b) != (0, 0)."""
    pts = [_frac_vec(p) for p in points]
    lns = [_frac_vec(l) for l in lines]
    for a, b, c in lns:
        if a == 0 and b == 0:
            raise ValueError("degenerate line")
    edges = set()
    for pi, (x, y) in enumerate(pts):
        for li, (a, b, c) in enumerate(lns):
            if a * x + b * y == c:
                edges.add((pi, li))
    return BipartiteGraph(len(pts), len(lns), frozenset(edges))


# ---------------------------------------------------------------------------
# text formats


def _fmt_q(x: Fraction) -> str:
    return str(Fraction(x))


def _parse_q(s: str) -> Fraction:
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {s!r}") from None


def format_scene(scene: Scene) -> str:
    out = [f"scene {scene.dim} {len(scene.points)} {len(scene.halfspaces)}"]
    for p in scene.points:
        out.append("p " + " ".join(_fmt_q(c) for c in p))
    for w, t in scene.halfspaces:
        out.append("h " + " ".join(_fmt_q(c) for c in w) + " " + _fmt_q(t))
    return "\n".join(out) + "\n"


def parse_scene(text: str) -> Scene:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("scene "):
        raise ValueError("bad scene header")
    _, d, np_, nh = lines[0].split()
    d, np_, nh = int(d), int(np_), int(nh)
    pts, hs = [], []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "p":
            if len(parts) != d + 1:
                raise ValueError(f"bad point line: {ln!r}")
            pts.append(tuple(_parse_q(x) for x in parts[1:]))
        elif parts[0] == "h":
            if len(parts) != d + 2:
                raise ValueError(f"bad halfspace line: {ln!r}")
            hs.append((tuple(_parse_q(x) for x in parts[1:-1]), _parse_q(parts[-1])))
        else:
            raise ValueError(f"unknown scene line: {ln!r}")
    if len(pts) != np_ or len(hs) != nh:
        raise ValueError("scene count mismatch")
    return Scene.make(d, pts, hs)


def format_udg(r: UdgRealization) -> str:
    out = [f"udg {r.n} {_fmt_q(r.radius)}"]
    for x, y in r.points:
        out.append(f"p {_fmt_q(x)} {_fmt_q(y)}")
    return "\n".join(out) + "\n"


def parse_udg(text: str) -> UdgRealization:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("udg "):
        raise ValueError("bad udg header")
    _, n, r = lines[0].split()
    pts = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "p":
            raise ValueError(f"bad point line: {ln!r}")
        pts.append((_parse_q(parts[1]), _parse_q(parts[2])))
    if len(pts) != int(n):
        raise ValueError("udg count mismatch")
    return UdgRealization.make(pts, _parse_q(r))


def format_signrank3(a_vectors, b_vectors) -> str:
    out = [f"signrank3 {len(a_vectors)} {len(b_vectors)}"]
    for a in a_vectors:
        out.append("a " + " ".join(_fmt_q(Fraction(c)) for c in a))
    for b in b_vectors:
        out.append("b " + " ".join(_fmt_q(Fraction(c)) for c in b))
    return "\n".join(out) + "\n"


def parse_signrank3(text: str):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("signrank3 "):
        raise ValueError("bad signrank3 header")
    _, nu, nw = lines[0].split()
    avs, bvs = [], []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4 or parts[0] not in ("a", "b"):
            raise ValueError(f"bad vector line: {ln!r}")
        vec = tuple(_parse_q(x) for x in parts[1:])
        (avs if parts[0] == "a" else bvs).append(vec)
    if len(avs) != int(nu) or len(bvs) != int(nw):
        raise ValueError("signrank3 count mismatch")
    return avs, bvs
