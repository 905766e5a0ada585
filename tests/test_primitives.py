"""Segment intersection classification, polygon validation, rigid motions.

segment_hits and point_in_polygon take int pairs of one integer frame;
validate_simple_polygon and point_in_polygon_closed take frame points,
pairs of plain rationals.  tests/containment_oracle.py holds the rational
predicates the package used before, as the exact reference, and
tests/rotation_oracle.py the 30-degree rotations of real coordinates in
Q(sqrt3), checked here as the reference for perron.apex_turn.
"""

import math
import random
from fractions import Fraction as F

import pytest

import containment_oracle as oracle
from rotation_oracle import RigidMotion
from kakeyalab.exactgeom import (
    GeomError,
    HIT_NONE,
    HIT_OVERLAP,
    HIT_POINT,
    Point2,
    SQRT3,
    Segment2,
    integer_frame,
    point_in_polygon,
    point_in_polygon_closed,
    segment_hits,
    signed_area2,
    validate_simple_polygon,
)
from kakeyalab.exactgeom.scalar import scalar


def P(x, y):
    return Point2(x, y)


# A coarse grid whose doubles are inexact: touching, collinear and
# overlapping edges are common on it.
TICKS = [F(0), F(1, 3), F(1, 2), F(2, 3), F(7, 5)]
# An offset below double resolution at coordinates near 1.
SUB_ULP = F(1, 10**18)


def all_pairs_defect(poly):
    """validate_simple_polygon's first defect, from exact tests on every
    edge pair; None for a simple polygon."""
    n = len(poly)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = poly[i], poly[(i + 1) % n]
            c, d = poly[j], poly[(j + 1) % n]
            hit = oracle.segment_hits(a, b, c, d)
            if hit[0] == HIT_NONE:
                continue
            if hit[0] == HIT_OVERLAP:
                return "edges %d and %d overlap" % (i, j)
            if not (j == i + 1 or (i == 0 and j == n - 1)):
                return "edges %d and %d cross" % (i, j)
            ok = ((hit[1] == 1 and hit[2] == 0) if j == i + 1
                  else (hit[1] == 0 and hit[2] == 1))
            if not ok:
                return "adjacent edges %d and %d re-touch" % (i, j)
    return None


def assert_validation_is_exact(poly):
    """validate_simple_polygon reports what all_pairs_defect does; returns it."""
    want = all_pairs_defect(poly)
    try:
        validate_simple_polygon(poly)
        got = None
    except GeomError as exc:
        got = str(exc)
    if want is None and got is not None:
        # simple but collinear: the area check, not the filter
        assert got == "polygon has zero area"
    else:
        assert got == want
    return want


def ratios(*ts):
    """Segment parameters (n, d) as Fractions."""
    return tuple(F(*t) for t in ts)


class TestSegmentHits:
    def test_proper_crossing(self):
        hit = segment_hits((0, 0), (2, 2), (0, 2), (2, 0))
        assert hit[0] == HIT_POINT
        assert ratios(hit[1], hit[2]) == (F(1, 2), F(1, 2))

    def test_endpoint_touch(self):
        hit = segment_hits((0, 0), (1, 1), (1, 1), (2, 0))
        assert hit[0] == HIT_POINT
        assert ratios(hit[1], hit[2]) == (1, 0)

    def test_t_junction(self):
        hit = segment_hits((0, 0), (2, 0), (1, 0), (1, 5))
        assert hit[0] == HIT_POINT
        assert ratios(hit[1], hit[2]) == (F(1, 2), 0)

    def test_skew_miss(self):
        assert segment_hits((0, 0), (1, 0), (0, 1), (1, 2))[0] == HIT_NONE

    def test_parallel_offset(self):
        assert segment_hits((0, 0), (2, 0), (0, 1), (2, 1))[0] == HIT_NONE

    def test_crossing_beyond_range(self):
        # lines cross at (3, 3) which is outside the first segment
        assert segment_hits((0, 0), (1, 1), (3, 0), (3, 6))[0] == HIT_NONE

    def test_collinear_overlap(self):
        hit = segment_hits((0, 0), (2, 0), (1, 0), (3, 0))
        assert hit[0] == HIT_OVERLAP
        assert ratios(*hit[1]) == (F(1, 2), 1)
        assert ratios(*hit[2]) == (0, F(1, 2))

    def test_collinear_disjoint(self):
        assert segment_hits((0, 0), (1, 0), (2, 0), (3, 0))[0] == HIT_NONE

    def test_collinear_endpoint_touch(self):
        hit = segment_hits((0, 0), (1, 0), (1, 0), (2, 0))
        assert hit[0] == HIT_POINT
        assert ratios(hit[1], hit[2]) == (1, 0)

    def test_agrees_with_the_rational_oracle(self):
        # every pair of segments on a coarse grid, all kinds of contact
        rng = random.Random(2)
        kinds = set()
        for _ in range(600):
            ends = [P(*rng.sample(TICKS, 2)) for _ in range(4)]
            if ends[0] == ends[1] or ends[2] == ends[3]:
                continue
            _, (ints,) = integer_frame([ends])
            got, want = segment_hits(*ints), oracle.segment_hits(*ends)
            assert got[0] == want[0]
            if got[0] == HIT_POINT:
                assert ratios(got[1], got[2]) == want[1:]
            elif got[0] == HIT_OVERLAP:
                assert (ratios(*got[1]), ratios(*got[2])) == want[1:]
            kinds.add(got[0])
        assert kinds == {HIT_NONE, HIT_POINT, HIT_OVERLAP}


def test_on_segment():
    # the oracle's closed-segment test, which the differential tests lean on
    assert oracle.on_segment(P(1, 1), P(0, 0), P(2, 2))
    assert oracle.on_segment(P(0, 0), P(0, 0), P(2, 2))
    assert not oracle.on_segment(P(3, 3), P(0, 0), P(2, 2))
    assert not oracle.on_segment(P(1, 0), P(0, 0), P(2, 2))


def test_orient_signs():
    # the orientation determinant is the sign of twice the signed area
    assert signed_area2([(0, 0), (1, 0), (0, 1)]) > 0
    assert signed_area2([(0, 0), (0, 1), (1, 0)]) < 0
    assert signed_area2([(0, 0), (1, 1), (2, 2)]) == 0


def test_degenerate_segment_rejected():
    with pytest.raises(GeomError):
        Segment2(P(1, 1), P(1, 1))


class TestPolygonValidation:
    def test_square_accepted_and_oriented(self):
        cw = [P(0, 0), P(0, 1), P(1, 1), P(1, 0)]
        out = validate_simple_polygon(cw)
        assert out == cw[::-1]
        assert oracle.polygon_area(out) == 1

    def test_bowtie_rejected(self):
        with pytest.raises(GeomError):
            validate_simple_polygon([P(0, 0), P(1, 1), P(1, 0), P(0, 1)])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(GeomError):
            validate_simple_polygon([P(0, 0), P(1, 1), P(2, 0), P(1, 1)])

    def test_zero_area_rejected(self):
        with pytest.raises(GeomError):
            validate_simple_polygon([P(0, 0), P(1, 0), P(2, 0)])

    def test_redundant_collinear_vertex_accepted(self):
        poly = [P(0, 0), P(1, 0), P(2, 0), P(2, 1), P(0, 1)]
        assert oracle.polygon_area(validate_simple_polygon(poly)) == 2

    def test_too_few_vertices(self):
        with pytest.raises(GeomError):
            validate_simple_polygon([P(0, 0), P(1, 0)])

    def test_ensure_ccw_flips(self):
        cw = [P(0, 0), P(0, 1), P(1, 0)]
        assert validate_simple_polygon(cw) == cw[::-1]
        assert validate_simple_polygon(cw[::-1]) == cw[::-1]

    def test_bbox_filter_reports_what_all_pairs_report(self):
        # Vertices on a coarse Q(sqrt3) grid make touching, collinear and
        # overlapping edges common; every pair the float filter skips
        # must be a pair the exact test would pass.
        rng = random.Random(0)
        ticks = TICKS
        outcomes = set()
        for _ in range(400):
            n = rng.randint(3, 9)
            pts = {(rng.randrange(5), rng.randrange(5)) for _ in range(n)}
            if len(pts) < 3:
                continue
            poly = [Point2(ticks[i], ticks[j]) for i, j in rng.sample(sorted(pts), len(pts))]
            want = assert_validation_is_exact(poly)
            outcomes.add(want.split()[-1] if want else "simple")
        assert {"simple", "cross", "overlap"} <= outcomes

    def test_bbox_filter_below_double_resolution(self):
        # A notch whose tip sits h above an edge at height 1/3: h > 0 is
        # simple, h <= 0 touches or crosses.  At |h| = 1e-18 the tip's
        # box and the edge's box have equal doubles, so only the exact
        # test can tell; turned four ways, run both ways round and from
        # two starts, so each box comparison meets the tie in either order.
        third = F(1, 3)
        assert float(third + SUB_ULP) == float(third - SUB_ULP) == float(third)
        outcomes = set()
        for h in (0, SUB_ULP, -SUB_ULP, F(1, 10**12), -F(1, 10**12)):
            base = [(0, third), (2, third), (2, 2), (F(4, 3), 2), (1, third + h),
                    (F(2, 3), 2), (0, 2)]
            for turns in range(4):
                pts = base
                for _ in range(turns):
                    pts = [(-y, x) for x, y in pts]
                for start in (0, 3):
                    for order in (1, -1):
                        poly = [P(x, y) for x, y in (pts[start:] + pts[:start])[::order]]
                        want = assert_validation_is_exact(poly)
                        outcomes.add((h > 0, want.split()[-1] if want else "simple"))
        assert outcomes == {(True, "simple"), (False, "cross")}


class TestPointInPolygon:
    square = [P(0, 0), P(2, 0), P(2, 2), P(0, 2)]

    def test_interior(self):
        assert point_in_polygon_closed(P(1, 1), self.square)

    def test_exterior(self):
        assert not point_in_polygon_closed(P(3, 1), self.square)

    def test_edge_and_vertex(self):
        assert point_in_polygon_closed(P(2, 1), self.square)
        assert point_in_polygon_closed(P(0, 0), self.square)
        assert point_in_polygon_closed(P(1, 2), self.square)

    def test_ray_through_vertex(self):
        diamond = [P(2, 0), P(4, 2), P(2, 4), P(0, 2)]
        assert point_in_polygon_closed(P(1, 2), diamond)
        assert not point_in_polygon_closed(P(5, 2), diamond)
        assert not point_in_polygon_closed(P(-1, 2), diamond)

    def test_float_filter_agrees_with_exact_parity(self):
        def exact(p, poly):
            inside = False
            for v, w in zip(poly, poly[1:] + poly[:1]):
                if oracle.on_segment(p, v, w):
                    return True
                if (v.y <= p.y) != (w.y <= p.y):
                    t = (p.y - v.y) / (w.y - v.y)
                    if v.x + t * (w.x - v.x) > p.x:
                        inside = not inside
            return inside

        # Queries on vertices, on edges, in the open, and a hair off them:
        # 1e-12 above, below, left and right (doubles still tell those
        # apart) and 1e-18 (they do not): every branch of both filters,
        # the x test and the vertex heights, float and exact.
        rng = random.Random(1)
        ticks = TICKS
        seen = set()
        for _ in range(150):
            cells = rng.sample([(i, j) for i in range(5) for j in range(5)], rng.randint(3, 7))
            poly = [Point2(ticks[i], ticks[j]) for i, j in cells]
            for _ in range(12):
                v, w = rng.sample(poly, 2)
                mid = Point2((v.x + w.x) * F(1, 2), (v.y + w.y) * F(1, 2))
                base = rng.choice([v, mid, Point2(ticks[rng.randrange(5)], ticks[rng.randrange(5)])])
                hair = rng.choice([F(1, 10**12), F(1, 10**18)])
                dx, dy = rng.choice([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])
                q = Point2(base.x + hair * dx, base.y + hair * dy)
                want = exact(q, poly)
                assert point_in_polygon_closed(q, poly) == want
                assert oracle.point_in_polygon_closed(q, poly) == want
                seen.add((want, dy))
        assert seen == {(w, dy) for w in (True, False) for dy in (-1, 0, 1)}

    def test_homogeneous_points(self):
        # a point (x/m, y/m) of the polygon's integer frame, m > 1
        rng = random.Random(3)
        seen = set()
        for _ in range(300):
            poly = [P(rng.choice(TICKS), rng.choice(TICKS)) for _ in range(rng.randint(3, 6))]
            q = P(F(rng.randint(-2, 30), rng.randint(1, 20)), F(rng.randint(-2, 30), rng.randint(1, 20)))
            D, (ints,) = integer_frame([poly])
            m = math.lcm(q.x.denominator, q.y.denominator)
            want = oracle.point_in_polygon_closed(q, poly)
            assert point_in_polygon(int(q.x * m * D), int(q.y * m * D), m, ints) == want
            seen.add(want)
        assert seen == {True, False}


class TestRigidMotion:
    def test_off_lattice_angle_rejected(self):
        with pytest.raises(GeomError):
            RigidMotion.rotation(45)

    def test_thirty_degree_rotation_exact(self):
        r = RigidMotion.rotation(30)
        img = r.apply(P(1, 0))
        assert img.x == SQRT3 * scalar(F(1, 2))
        assert img.y == scalar(F(1, 2))

    def test_rotation_preserves_squared_distance(self):
        r = RigidMotion.rotation(150, P(2, -1))
        a, b = P(3, F(1, 3)), P(-1, F(5, 7))
        ia, ib = r.apply(a), r.apply(b)
        def sq(p, q):
            return (q.x - p.x) * (q.x - p.x) + (q.y - p.y) * (q.y - p.y)

        assert sq(a, b) == sq(ia, ib)

    def test_three_times_120_is_identity(self):
        r = RigidMotion.rotation(120, P(0, 1))
        pts = [P(F(1, 3), F(-2, 5)), P(0, 0), P(1, 1)]
        for p in pts:
            q = r.apply(r.apply(r.apply(p)))
            assert q == p
