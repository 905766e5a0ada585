"""Boolean region calculus: exact areas, normalization, containment.

Regions take real coordinates and hold frame points (u, y), x = s*u;
real() turns them back into real coordinates, and segments handed to
contains_segment are in the region's frame.
"""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import containment_oracle
from containment_oracle import on_segment, polygon_area, segment_hits
from raster_oracle import poly_floats, raster_area
from rotation_oracle import RigidMotion
from slab_oracle import overlay as oracle_overlay

from kakeyalab.exactgeom import (
    HIT_OVERLAP,
    HIT_POINT,
    ExactScalar,
    GeomError,
    INV_SQRT3,
    ONE,
    Point2,
    Region2,
    SQRT3,
    Segment2,
    ZERO,
    contains_segment,
    normalize,
    point_in_polygon_closed,
    region_area,
)
from kakeyalab.exactgeom.scalar import scalar


def P(x, y):
    return Point2(x, y)


def real(r):
    """r's polygons in real coordinates."""
    s = SQRT3 if r.sqrt3 else ONE
    return [[Point2(s * v.x, v.y) for v in poly] for poly in r.polygons]


def in_frame(r, area):
    """A rational area of r's frame as a real area."""
    return ExactScalar(0, area) if r.sqrt3 else ExactScalar(area)


def union(*regions):
    return normalize(Region2([p for r in regions for p in real(r)]))


def intersect_area(a, b):
    """Exact area of a & b, from the slab-sweep oracle's intersect mode."""
    assert a.sqrt3 == b.sqrt3
    _, area = oracle_overlay(
        [[list(p) for p in a.polygons], [list(p) for p in b.polygons]], "intersect")
    return in_frame(a, area)


def shifted(a, dx, dy):
    return Region2([[P(v.x + dx, v.y + dy) for v in poly] for poly in real(a)])


def rotated(a, motion):
    return Region2([[motion.apply(v) for v in poly] for poly in real(a)])


APEX_TURNS = [RigidMotion.rotation(angle, P(0, 1)) for angle in (120, 240)]


def covers(a, p):
    return any(point_in_polygon_closed(p, list(poly)) for poly in a.polygons)


def unit_square():
    return Region2.from_polygon([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])


def height_one_triangle():
    return Region2.from_polygon(
        [Point2(-INV_SQRT3, ZERO), Point2(INV_SQRT3, ZERO), P(0, 1)]
    )


def rand_triangle(rng, xunit=ONE):
    while True:
        pts = [
            Point2(xunit * F(rng.randint(-12, 12), rng.randint(1, 6)),
                   F(rng.randint(-12, 12), rng.randint(1, 6)))
            for _ in range(3)
        ]
        try:
            return Region2.from_polygon(pts)
        except GeomError:
            continue


def test_triangle_area_exact():
    assert region_area(height_one_triangle()) == INV_SQRT3
    assert region_area(height_one_triangle()) == ExactScalar(0, F(1, 3))


def test_square_and_empty_area():
    assert region_area(unit_square()) == ONE
    assert region_area(Region2([])) == ZERO


def test_union_idempotent():
    u = union(unit_square(), unit_square())
    assert region_area(u) == ONE


def test_union_disjoint_additive():
    assert region_area(union(unit_square(), shifted(unit_square(), 1, 0))) == scalar(2)


def test_intersect_disjoint_empty():
    # the oracle's intersect mode, which the inclusion-exclusion test uses
    far = shifted(unit_square(), 5, 0)
    pieces, area = oracle_overlay(
        [[list(unit_square().polygons[0])], [list(far.polygons[0])]], "intersect")
    assert pieces == []
    assert area == ZERO


def test_intersect_self():
    assert intersect_area(unit_square(), unit_square()) == ONE


def test_one_level_shift_overlap_below_triangle():
    # the two half-fans of the height-1 triangle, slid one quarter of the
    # half-base toward each other; overlap area frozen from the hand
    # derivation (11/16 of the triangle)
    a = INV_SQRT3
    q = a * scalar(F(1, 4))
    left = [Point2(ZERO + q, ONE), Point2(-a + q, ZERO), Point2(ZERO + q, ZERO)]
    right = [Point2(ZERO - q, ONE), Point2(ZERO - q, ZERO), Point2(a - q, ZERO)]
    u = union(Region2.from_polygon(left), Region2.from_polygon(right))
    area = region_area(u)
    assert area == ExactScalar(0, F(11, 48))
    assert area < INV_SQRT3
    approx = raster_area([poly_floats(left), poly_floats(right)])
    assert abs(approx - float(area)) < 0.02 * float(area)


def test_inclusion_exclusion_exact_randomized():
    rng = random.Random(421)
    for _ in range(25):
        A = rand_triangle(rng)
        B = rand_triangle(rng)
        lhs = region_area(union(A, B)) + intersect_area(A, B)
        rhs = polygon_area(list(A.polygons[0])) + polygon_area(list(B.polygons[0]))
        assert lhs == rhs
        assert not A.sqrt3 and not B.sqrt3  # s = 1: frame areas are real ones


def test_union_area_against_rasterizer():
    rng = random.Random(99)
    for _ in range(8):
        A = rand_triangle(rng)
        B = rand_triangle(rng)
        u = union(A, B)
        exact = float(region_area(u))
        approx = raster_area(
            [poly_floats(A.polygons[0]), poly_floats(B.polygons[0])]
        )
        assert abs(approx - exact) < 0.02 * exact + 1e-3


def test_union_monotone_and_subset_sampling():
    rng = random.Random(7)
    for _ in range(10):
        A = rand_triangle(rng)
        B = rand_triangle(rng)
        u = union(A, B)
        ua = region_area(u)
        assert ua >= region_area(A)
        assert ua >= region_area(B)
        # rational convex combinations of A's vertices stay in the union
        va, vb, vc = A.polygons[0]
        for _ in range(8):
            w1 = F(rng.randint(0, 8), 8)
            w2 = F(rng.randint(0, 8), 8) * (1 - w1)
            w3 = 1 - w1 - w2
            p = Point2(
                va.x * w1 + vb.x * w2 + vc.x * w3,
                va.y * w1 + vb.y * w2 + vc.y * w3,
            )
            assert covers(u, p)


def test_normalized_pieces_interior_disjoint():
    A = unit_square()
    B = shifted(A, F(1, 3), F(1, 2))
    u = union(A, B)
    pieces = [Region2.from_polygon(p) for p in real(u)]
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            assert intersect_area(pieces[i], pieces[j]) == ZERO


def test_transform_preserves_area_and_commutes_with_union():
    # the apex rotations keep sqrt3*Q x Q, the frame of the Perron pieces
    rng = random.Random(13)
    for r in APEX_TURNS:
        for _ in range(3):
            A = rand_triangle(rng, SQRT3)
            B = rand_triangle(rng, SQRT3)
            assert rotated(A, r).sqrt3
            assert region_area(rotated(A, r)) == region_area(A)
            lhs = region_area(rotated(union(A, B), r))
            rhs = region_area(union(rotated(A, r), rotated(B, r)))
            assert lhs == rhs


def sqrt3_box():
    """[0, 1/sqrt3] x [0, 1/2], in the frame of the height-1 triangle."""
    return Region2.from_polygon(
        [Point2(x, y) for x, y in ((ZERO, 0), (INV_SQRT3, 0), (INV_SQRT3, F(1, 2)), (ZERO, F(1, 2)))])


def test_serialization_roundtrip_and_canonical_bytes():
    def build():
        return union(height_one_triangle(), *(rotated(sqrt3_box(), r) for r in APEX_TURNS))

    A = build()
    blob = A.to_json()
    B = Region2.from_json(blob)
    assert B.sqrt3 and B.polygons == A.polygons
    assert B.to_json() == blob
    # rebuilding from scratch yields the same bytes
    assert build().to_json() == blob


def test_mixed_regions_are_refused(tmp_path, capsys):
    # a 30-degree turn sends Q^2 to points whose x mixes both halves: no
    # frame holds them, so neither Region2 nor the CLI accepts them
    from kakeyalab.cli import dispatch

    turn = RigidMotion.rotation(30, P(0, 0))
    square = [turn.apply(v) for v in real(unit_square())[0]]
    with pytest.raises(GeomError, match="frame"):
        Region2.from_polygon(square)
    # a sqrt3-frame triangle beside a rational square needs both frames
    with pytest.raises(GeomError, match="frame"):
        Region2(real(height_one_triangle()) + real(shifted(unit_square(), 2, 0)))
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"polygons": [
        [list(v.x.to_ints()) + list(v.y.to_ints()) for v in square]]}))
    assert dispatch(["dim", "--in", str(path), "--deltas", "2^-3..2^-5",
                     "--out", str(tmp_path / "dim.csv")]) == 2
    assert "outside the frame" in capsys.readouterr().err
    assert not (tmp_path / "dim.csv").exists()


def test_from_json_validates():
    with pytest.raises(GeomError):
        Region2.from_json('{"polygons":[[[0,1,0,1,0,1,0,1]]]}')


def test_contains_segment_examples():
    tri = height_one_triangle()
    assert contains_segment(tri, Segment2(P(0, 1), P(0, 0)))
    assert not contains_segment(tri, Segment2(P(10, 1), P(10, 0)))
    # a chord that exits through both slanted sides fails
    assert not contains_segment(tri, Segment2(P(-1, F(1, 100)), P(1, F(1, 100))))


def test_contains_segment_closed_boundary():
    sq = unit_square()
    assert contains_segment(sq, Segment2(P(0, 0), P(1, 0)))
    assert contains_segment(sq, Segment2(P(0, 0), P(1, 1)))


def test_contains_segment_across_shared_edge():
    # two squares meeting along x=1: the union contains segments through
    # the interface even though each half alone does not
    left = unit_square()
    u = union(left, shifted(left, 1, 0))
    seg = Segment2(P(F(1, 2), F(1, 2)), P(F(3, 2), F(1, 2)))
    assert contains_segment(u, seg)
    assert not contains_segment(left, seg)


def test_contains_sub_segments():
    rng = random.Random(31)
    tri = height_one_triangle()
    seg = Segment2(P(0, 1), P(F(1, 4), 0))
    assert contains_segment(tri, seg)
    d = P(seg.q.x - seg.p.x, seg.q.y - seg.p.y)
    for _ in range(10):
        t0 = F(rng.randint(0, 60), 64)
        t1 = F(rng.randint(int(t0 * 64) + 1, 64), 64)
        a = Point2(seg.p.x + d.x * t0, seg.p.y + d.y * t0)
        b = Point2(seg.p.x + d.x * t1, seg.p.y + d.y * t1)
        assert contains_segment(tri, Segment2(a, b))


def exact_contains(a, s):
    """contains_segment with no float shortcut: split s at its hits with
    every edge, then test each piece's midpoint against every polygon by
    exact ray parity."""
    def inside(p, poly):
        parity = False
        for v, w in zip(poly, poly[1:] + poly[:1]):
            if on_segment(p, v, w):
                return True
            if (v.y <= p.y) != (w.y <= p.y):
                t = (p.y - v.y) / (w.y - v.y)
                parity ^= v.x + t * (w.x - v.x) > p.x
        return parity

    ts = {F(0), F(1)}
    for poly in a.polygons:
        for v, w in zip(poly, poly[1:] + poly[:1]):
            hit = segment_hits(s.p, s.q, v, w)
            if hit[0] == HIT_POINT:
                ts.add(hit[1])
            elif hit[0] == HIT_OVERLAP:
                ts.update(hit[1])
    order = sorted(ts)
    d = P(s.q.x - s.p.x, s.q.y - s.p.y)
    for t0, t1 in zip(order, order[1:]):
        mid = (t0 + t1) / 2
        pt = P(s.p.x + d.x * mid, s.p.y + d.y * mid)
        if not any(inside(pt, poly) for poly in a.polygons):
            return False
    return True


def quarter_turns(pts, k):
    """Points of (x, y) pairs, turned k times by 90 degrees about 0."""
    for _ in range(k):
        pts = [(-y, x) for x, y in pts]
    return [P(x, y) for x, y in pts]


def test_contains_segment_below_double_resolution():
    # Two boxes meeting at x = 1/3, apart by h (a gap for h > 0), and
    # segments across the seam, along it and ending at it, g off it.  At
    # 1e-18 the doubles of 1/3 + h and 1/3 + g all coincide, so every
    # box test of the seam is a tie; turned four ways, so each box
    # comparison meets it.
    third, tiny = F(1, 3), F(1, 10**18)
    assert float(third + tiny) == float(third - tiny) == float(third)
    offsets = (0, tiny, -tiny, F(1, 10**12), -F(1, 10**12))
    outcomes = set()
    for h in offsets:
        boxes = [[(0, 0), (third, 0), (third, 1), (0, 1)],
                 [(third + h, 0), (1, 0), (1, 1), (third + h, 1)]]
        for g in offsets:
            x = third + g
            segs = [((F(1, 10), F(1, 2)), (F(9, 10), F(1, 2))),
                    ((x, F(1, 4)), (x, F(3, 4))),
                    ((F(1, 10), F(1, 4)), (x, F(3, 4))),
                    ((x, F(1, 4)), (F(9, 10), F(3, 4)))]
            for turns in range(4):
                region = Region2([quarter_turns(box, turns) for box in boxes])
                for ends in segs:
                    seg = Segment2(*quarter_turns(ends, turns))
                    want = exact_contains(region, seg)
                    assert contains_segment(region, seg) == want
                    outcomes.add(want)
    assert outcomes == {True, False}


LATTICE = 6


@st.composite
def containment_cases(draw):
    """Lattice boxes and triangles in thirds, and a segment through one of
    their vertices, along the line of an edge, ending on an edge, or
    anywhere."""
    pt = st.tuples(st.integers(0, LATTICE), st.integers(0, LATTICE))
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            (x0, y0), (x1, y1) = draw(pt), draw(pt)
            assume(x0 != x1 and y0 != y1)
            verts = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        else:
            a, b, c = verts = [draw(pt) for _ in range(3)]
            assume((b[0] - a[0]) * (c[1] - a[1]) != (b[1] - a[1]) * (c[0] - a[0]))
        polys.append([P(F(x, 3), F(y, 3)) for x, y in verts])
    edges = [(poly[i - 1], poly[i]) for poly in polys for i in range(len(poly))]

    def on_line(v, w, k):  # v + (k/6)(w - v)
        return P(v.x + F(k, 6) * (w.x - v.x), v.y + F(k, 6) * (w.y - v.y))

    def anywhere():
        return P(F(draw(st.integers(-3, 3 * LATTICE + 3)), 9),
                 F(draw(st.integers(-3, 3 * LATTICE + 3)), 9))

    kind = draw(st.sampled_from(["vertex", "edge", "end", "free"]))
    if kind == "vertex":
        v = draw(st.sampled_from([v for poly in polys for v in poly]))
        a = anywhere()
        b = P(2 * v.x - a.x, 2 * v.y - a.y)
    elif kind == "edge":
        v, w = draw(st.sampled_from(edges))
        a, b = (on_line(v, w, k) for k in draw(st.lists(
            st.integers(-3, 9), min_size=2, max_size=2, unique=True)))
    else:
        v, w = draw(st.sampled_from(edges))
        a = anywhere()
        b = on_line(v, w, draw(st.integers(0, 6))) if kind == "end" else anywhere()
    assume(a != b)
    return polys, Segment2(a, b)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(case=containment_cases(), sqrt3=st.booleans())
def test_contains_segment_equals_rational_oracle(case, sqrt3):
    # the integer-frame test against the rational one it replaced, on the
    # region as given (overlapping polygons) and on its normalized pieces
    polys, seg = case
    s = SQRT3 if sqrt3 else ONE
    region = Region2([[Point2(s * v.x, v.y) for v in poly] for poly in polys])
    for r in (region, normalize(region)):
        assert contains_segment(r, seg) == containment_oracle.contains_segment(r, seg)


def test_degenerate_polygon_rejected_with_diagnostic():
    with pytest.raises(GeomError):
        Region2.from_polygon([P(0, 0), P(1, 0), P(2, 0)])


def test_normalize_caches_exact_area():
    A = Region2(
        [
            [P(0, 0), P(2, 0), P(2, 2), P(0, 2)],
            [P(1, 1), P(3, 1), P(3, 3), P(1, 3)],
        ]
    )
    n = normalize(A)
    assert region_area(n) == scalar(7)
    assert region_area(A) == scalar(7)
