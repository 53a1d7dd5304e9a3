import itertools
import random
from fractions import Fraction

import pytest

from eqlabel import generators as gen
from eqlabel.geometry import (
    DegenerateSceneError,
    Scene,
    UdgRealization,
    dot,
    format_scene,
    format_signrank3,
    format_udg,
    in_convex_position,
    incidence_graph,
    parse_scene,
    parse_signrank3,
    parse_udg,
    point_box_incidence,
    point_line_incidence,
    positive_partition,
    sign_matrix,
    signrank3_decompose,
    signrank_graph,
    signrank_split,
    udg_grid_partition,
    udg_to_signrank4,
    unit_disk_graph,
    verify_incidence_degeneracy,
)
from eqlabel.oracles import has_biclique


# scenes -------------------------------------------------------------------


def test_scene_rejects_boundary_points():
    with pytest.raises(DegenerateSceneError):
        Scene.make(1, [(1,)], [((1,), 1)])  # <w,p> == t exactly
    sc = Scene.make(1, [(2,)], [((1,), 1)])
    assert sc.contains(0, 0)


def test_incidence_graph_membership():
    # one halfplane x > 0, points on both sides
    sc = Scene.make(2, [(1, 1), (-1, 0), (2, -3)], [((1, 0), 0)])
    g = incidence_graph(sc)
    assert g.has_edge(0, 0) and g.has_edge(2, 0)
    assert not g.has_edge(1, 0)


def test_positive_partition_groups_by_pattern():
    sc = Scene.make(
        2,
        [(0, 0)],
        [((1, 1), -1), ((1, 2), -1), ((-1, 1), -1), ((1, -1), -1)],
    )
    parts = positive_partition(sc)
    sizes = {pat: len(his) for pat, (sub, his) in parts.items()}
    assert sum(sizes.values()) == 4
    assert sizes[3] == 2  # both-positive normals share a group
    for pat, (sub, his) in parts.items():
        for i, (w1, _) in enumerate(sub.halfspaces):
            for (w2, _) in sub.halfspaces[i:]:
                assert dot(w1, w2) >= 0


# sign-rank ----------------------------------------------------------------


def test_sign_matrix_and_graph():
    a = [(1, 0, 1), (0, 1, -2)]
    b = [(1, 1, 1), (0, 3, 1)]
    m = sign_matrix(a, b)
    assert m == ((1, 1), (-1, 1)) or m == [[1, 1], [-1, 1]]
    g = signrank_graph(a, b)
    assert g.has_edge(0, 0) and g.has_edge(0, 1) and g.has_edge(1, 1)
    assert not g.has_edge(1, 0)


def test_sign_matrix_rejects_zero_products():
    with pytest.raises(ValueError):
        sign_matrix([(1, 0, 0)], [(0, 0, 1)])


def test_signrank_split_classes_and_membership():
    a, b = gen.random_signrank3(8, 8, seed=13)
    sp, up, sn, un = signrank_split(a, b)
    assert sorted(up + un) == list(range(8))
    g = signrank_graph(a, b)
    for scene, uids in ((sp, up), (sn, un)):
        for row, u in enumerate(uids):
            for w in range(8):
                assert scene.contains(w, row) == g.has_edge(u, w)


def test_signrank3_pieces_tile_matrix():
    a, b = gen.random_signrank3(10, 9, seed=4)
    dec = signrank3_decompose(a, b)
    g = signrank_graph(a, b)
    seen = set()
    for key, (scene, uids, wids) in dec.pieces.items():
        pg = dec.piece_graph(key)
        for r, u in enumerate(uids):
            for c, w in enumerate(wids):
                assert (u, w) not in seen
                seen.add((u, w))
                assert pg.has_edge(r, c) == g.has_edge(u, w)
    assert len(seen) == 10 * 9
    assert len(dec.pieces) <= 8


# unit disk realizations -----------------------------------------------------


def test_udg_rejects_exact_radius():
    with pytest.raises(DegenerateSceneError):
        UdgRealization.make([(0, 0), (2, 0)], radius=2)
    # cells of side 1: (0, 0) and (2, 2), at distance 2 exactly
    with pytest.raises(DegenerateSceneError, match="points 0,2 at distance"):
        UdgRealization.make(
            [(Fraction(9, 10), Fraction(1, 2)), (5, 5),
             (Fraction(21, 10), Fraction(21, 10))],
            radius=2,
        )


def test_udg_names_first_exact_radius_pair():
    # integer points and radii with many 3-4-5 pairs; the error must name
    # the smallest i, then the smallest j, as a scan of all pairs does
    rng = random.Random(4)
    named = 0
    for _ in range(150):
        r = rng.choice((2, 5, Fraction(5, 2)))
        pts = [(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(12)]
        exact = [
            (i, j)
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
            if (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2
            == r * r
        ]
        if not exact:
            UdgRealization.make(pts, r)
            continue
        named += 1
        i, j = exact[0]
        with pytest.raises(DegenerateSceneError) as e:
            UdgRealization.make(pts, r)
        assert str(e.value) == f"points {i},{j} at distance exactly the radius"
    assert named > 50


def test_udg_adjacency_and_cells():
    r = UdgRealization.make([(0, 0), (1, 0), (Fraction(7, 2), 0)], radius=2)
    assert r.adjacent(0, 1) and not r.adjacent(0, 2)
    assert r.adjacent(2, 2)  # reflexive by convention
    assert r.cell(0) == (0, 0) and r.cell(1) == (1, 0) and r.cell(2) == (3, 0)
    g = unit_disk_graph(r)
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)


def test_udg_grid_partition_same_cell_adjacent():
    r = gen.random_udg(40, box=8, radius=2, seed=17)
    cells = udg_grid_partition(r)
    assert sorted(v for vs in cells.values() for v in vs) == list(range(40))
    for vs in cells.values():
        for i in vs:
            for j in vs:
                assert r.adjacent(i, j)


def test_udg_sign_lift_identity():
    r = gen.random_udg(25, box=6, radius=2, seed=3)
    sigma, psi = udg_to_signrank4(r)
    r2 = r.radius * r.radius
    for i in range(r.n):
        for j in range(r.n):
            d2 = sum((r.points[i][k] - r.points[j][k]) ** 2 for k in (0, 1))
            assert dot(sigma[i], psi[j]) == r2 - d2


# convexity and degeneracy ---------------------------------------------------


def test_in_convex_position():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert in_convex_position(square, 2)
    assert not in_convex_position(square + [(Fraction(1, 2), Fraction(1, 2))], 2)
    # collinear middle point is in the hull of its neighbors
    assert not in_convex_position([(0, 0), (1, 0), (2, 0)], 2)


TETRAHEDRON = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)]


@pytest.mark.parametrize("dim, points, convex", [
    # coplanar dim-3 sets with an interior point
    (3, [(0, 1, 0), (0, 4, 0), (1, 3, 0), (2, 1, 0), (3, 3, 0)], False),
    (3, [(0, 3, 0), (1, 4, 0), (4, 2, 0), (2, 2, 0), (3, 2, 0)], False),
    (3, [(2, 1, 0), (3, 0, 0), (3, 1, 0), (0, 4, 0), (2, 0, 0)], False),
    # (2, 0) lies on the segment from (0, 0) to (3, 0)
    (2, [(2, 0), (0, 0), (1, 0), (3, 0)], False),
    # a repeated point lies in the hull of its copy
    (2, [(0, 0), (1, 0), (0, 0)], False),
    (3, TETRAHEDRON + [(4, 0, 0)], False),
    (1, [(5,), (5,)], False),
    (3, [], True),
    (3, [(1, 2, 3)], True),
    (3, TETRAHEDRON, True),
    (3, TETRAHEDRON + [(2, 2, 0)], False),  # on an edge
    (3, TETRAHEDRON + [(1, 1, 1)], False),  # the centroid
    # four coplanar points and one off their plane: a square pyramid
    (3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 5)], True),
    (2, [(Fraction(1, 3), 0), (0, Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 2))], True),
    (2, [(0, 0), (Fraction(1, 3), 0), (0, Fraction(1, 3)),
         (Fraction(1, 6), Fraction(1, 6))], False),  # on the hypotenuse
    (2, [(0, 0), (Fraction(1, 3), 0), (0, Fraction(1, 3)),
         (Fraction(1, 6), Fraction(1, 5))], True),
])
def test_in_convex_position_degenerate_inputs(dim, points, convex):
    assert in_convex_position(points, dim) is convex


def _solve(rows):
    """Row-reduce an augmented Fraction matrix. Returns (rank of the
    coefficient columns, solution) or None when inconsistent; the solution
    is unique only when the rank equals the number of unknowns."""
    rows = [list(r) for r in rows]
    k = len(rows[0]) - 1
    rank = 0
    pivots = []
    for c in range(k):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [x / rows[rank][c] for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(c)
        rank += 1
    if any(r[k] for r in rows[rank:]):
        return None
    sol = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        sol[c] = rows[i][k]
    return rank, sol


def _reference_in_hull(p, qs, dim):
    """Caratheodory: p is in the hull of qs iff it is a convex combination
    of some affinely independent subset of qs of size 1..dim+1."""
    for size in range(1, dim + 2):
        for sub in itertools.combinations(qs, size):
            # columns (q, 1); affinely independent iff they have full rank
            rows = [[Fraction(q[r]) for q in sub] + [Fraction(p[r])]
                    for r in range(dim)]
            rows.append([Fraction(1)] * (size + 1))
            got = _solve(rows)
            if got is not None and got[0] == size and min(got[1]) >= 0:
                return True
    return False


def _reference_convex(points, dim):
    return not any(
        _reference_in_hull(p, points[:i] + points[i + 1:], dim)
        for i, p in enumerate(points)
    )


def test_in_convex_position_matches_caratheodory_reference():
    rng = random.Random(4242)
    for trial in range(300):
        dim = 1 + trial % 3
        n = rng.randint(2, 6)
        flat = dim >= 2 and rng.random() < 0.4  # coplanar or collinear share
        points = []
        for _ in range(n):
            p = [Fraction(rng.randint(0, 3), rng.choice((1, 1, 2))) for _ in range(dim)]
            if flat:
                p[-1] = p[0] if dim == 2 else 2 * p[0] - p[1]
            points.append(tuple(p))
        assert in_convex_position(points, dim) == _reference_convex(points, dim), points


def test_degeneracy_report_bounds():
    for dim, bound in ((1, 2), (2, 6), (3, 10)):
        sc = gen.random_halfspace_scene(dim, 14, 7, seed=31 + dim, s=3)
        rep = verify_incidence_degeneracy(sc, 3)
        assert rep.ok
        assert rep.bound == bound
        assert rep.degeneracy <= bound


def test_degeneracy_report_caratheodory_branch():
    # interior point forces the non-convex-position branch
    sc = gen.random_halfspace_scene(2, 12, 6, seed=2, s=3, interior=True)
    rep = verify_incidence_degeneracy(sc, 3)
    assert not rep.convex_position
    assert rep.caratheodory_checked
    assert rep.caratheodory_degree <= rep.caratheodory_bound == 6


def test_degeneracy_rejects_biclique():
    sc = Scene.make(1, [(1,), (2,), (3,)], [((1,), 0), ((2,), 1), ((1,), -5)])
    with pytest.raises(ValueError):
        verify_incidence_degeneracy(sc, 3)


# point-box and point-line ---------------------------------------------------


def test_point_box_half_open():
    pts = [(0, 0), (2, 2), (1, 1)]
    boxes = [((0, 2), (0, 2))]
    g = point_box_incidence(pts, boxes)
    assert g.has_edge(0, 0) and g.has_edge(2, 0)
    assert not g.has_edge(1, 0)  # upper corner excluded


def test_point_line_incidence():
    pts = [(0, 0), (1, 1), (2, 2), (1, 0)]
    lines = [(1, -1, 0)]  # x - y = 0
    g = point_line_incidence(pts, lines)
    assert g.has_edge(0, 0) and g.has_edge(1, 0) and g.has_edge(2, 0)
    assert not g.has_edge(3, 0)


# text formats ---------------------------------------------------------------


def test_scene_round_trip():
    sc = gen.random_halfspace_scene(2, 8, 4, seed=5)
    assert parse_scene(format_scene(sc)) == sc


def test_udg_round_trip():
    r = gen.random_udg(12, box=5, radius=2, seed=8)
    assert parse_udg(format_udg(r)) == r


def test_signrank3_round_trip():
    a, b = gen.random_signrank3(5, 6, seed=10)
    a2, b2 = parse_signrank3(format_signrank3(a, b))
    assert tuple(a2) == tuple(a) and tuple(b2) == tuple(b)
