"""Points, segments, rigid motions, and exact incidence predicates.

The predicates compute on frame points, pairs of plain rationals (see
Point2), and decide every sign exactly.  Doubles only skip work: a
strict inequality between the doubles of two coordinates settles a
test before any exact arithmetic.  float() of a rational is correctly
rounded, hence monotone: a <= b gives float(a) <= float(b), so
float(a) < float(b) proves a < b.  Equal doubles prove nothing and fall
through to the exact comparison.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import ExactScalar, HALF, ONE, ZERO, _Q, rational


class GeomError(ValueError):
    """Raised for degenerate or out-of-contract geometric input."""


class Point2:
    """A pair of exact coordinates.

    In a region and in every predicate below, a frame point: rationals
    (u, y), x = s*u for the region's s in {1, sqrt3}, which signs, orders
    and segment parameters do not depend on.  At the boundary (Region2's
    input, RigidMotion) it holds real ExactScalar coordinates.
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x if isinstance(x, ExactScalar) else rational(x)
        self.y = y if isinstance(y, ExactScalar) else rational(y)

    def __add__(self, other):
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return Point2(self.x - other.x, self.y - other.y)

    def __eq__(self, other):
        if not isinstance(other, Point2):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return "Point2(%s, %s)" % (self.x, self.y)


ORIGIN = Point2(0, 0)


class Segment2:
    """A closed segment between two distinct exact points."""

    __slots__ = ("p", "q")

    def __init__(self, p: Point2, q: Point2):
        if p == q:
            raise GeomError("degenerate segment: identical endpoints %r" % (p,))
        self.p = p
        self.q = q

    def __repr__(self):
        return "Segment2(%r, %r)" % (self.p, self.q)


_Q0, _Q1 = _Q(0), _Q(1)


def cross(o: Point2, a: Point2, b: Point2):
    """Cross product (a - o) x (b - o)."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def dot(o: Point2, a: Point2, b: Point2):
    return (a.x - o.x) * (b.x - o.x) + (a.y - o.y) * (b.y - o.y)


def orient(o: Point2, a: Point2, b: Point2) -> int:
    """Sign of the turn o->a->b: +1 left, -1 right, 0 collinear."""
    c = cross(o, a, b)
    return (c > 0) - (c < 0)


def on_segment(p: Point2, a: Point2, b: Point2) -> bool:
    """Is p on the closed segment [a, b]?  Assumes a != b."""
    if cross(a, b, p):
        return False
    t_num = dot(a, p, b)          # (p-a).(b-a)
    return 0 <= t_num <= dot(a, b, b)  # |b-a|^2


def _bbox(points):
    xs = [float(v.x) for v in points]
    ys = [float(v.y) for v in points]
    return min(xs), max(xs), min(ys), max(ys)


def _bbox_touch(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]


# segment_hits result kinds
HIT_NONE = "none"
HIT_POINT = "point"
HIT_OVERLAP = "overlap"


def segment_hits(p1: Point2, q1: Point2, p2: Point2, q2: Point2):
    """Classify the intersection of closed segments [p1,q1] and [p2,q2].

    Returns one of
        (HIT_NONE,)
        (HIT_POINT, t1, t2)            parameters on each segment, in [0, 1]
        (HIT_OVERLAP, (a1, b1), (a2, b2))   collinear overlap, a<=b on seg 1

    Parameters are rationals.  Both segments must be non-degenerate.
    """
    d1 = q1 - p1
    d2 = q2 - p2
    denom = d1.x * d2.y - d1.y * d2.x
    r = p2 - p1
    if denom:
        t1 = (r.x * d2.y - r.y * d2.x) / denom
        t2 = (r.x * d1.y - r.y * d1.x) / denom
        if 0 <= t1 <= 1 and 0 <= t2 <= 1:
            return (HIT_POINT, t1, t2)
        return (HIT_NONE,)
    # parallel
    if r.x * d1.y - r.y * d1.x:
        return (HIT_NONE,)
    # collinear: parametrize seg2 endpoints on seg1
    dd = d1.x * d1.x + d1.y * d1.y
    tp = (r.x * d1.x + r.y * d1.y) / dd
    tq = ((q2.x - p1.x) * d1.x + (q2.y - p1.y) * d1.y) / dd
    lo, hi = (tp, tq) if tp <= tq else (tq, tp)
    lo = lo if lo > 0 else _Q0
    hi = hi if hi < 1 else _Q1
    if hi < lo:
        return (HIT_NONE,)
    # map back to parameters on segment 2
    dd2 = d2.x * d2.x + d2.y * d2.y

    def to_t2(t):
        pt_x = p1.x + d1.x * t
        pt_y = p1.y + d1.y * t
        return ((pt_x - p2.x) * d2.x + (pt_y - p2.y) * d2.y) / dd2

    if hi == lo:
        return (HIT_POINT, lo, to_t2(lo))
    return (HIT_OVERLAP, (lo, hi), (to_t2(lo), to_t2(hi)))


# -- polygons ----------------------------------------------------------


def signed_area2(poly):
    """Twice the signed shoelace area of a vertex list."""
    return sum((poly[i - 1].x * v.y - v.x * poly[i - 1].y for i, v in enumerate(poly)), _Q0)


def polygon_area(poly):
    """Area in the polygon's own frame (times s for the real area)."""
    return abs(signed_area2(poly)) / 2


def ensure_ccw(poly):
    s = signed_area2(poly)
    if not s:
        raise GeomError("polygon has zero area")
    return list(poly) if s > 0 else list(reversed(poly))


def validate_simple_polygon(poly):
    """Check a vertex list is a simple polygon with positive area.

    Returns the CCW-oriented copy; raises GeomError with a diagnostic
    otherwise.  Exact tests on the edge pairs whose bounding boxes touch,
    in (i, j) order, so the first defect reported is the first of all.
    """
    n = len(poly)
    if n < 3:
        raise GeomError("polygon needs >= 3 vertices, got %d" % n)
    for i in range(n):
        if poly[i] == poly[(i + 1) % n]:
            raise GeomError("repeated consecutive vertex at index %d" % i)
    if len({(p.x, p.y) for p in poly}) != n:
        raise GeomError("polygon repeats a vertex")
    edges = [(poly[i], poly[(i + 1) % n]) for i in range(n)]
    boxes = [_bbox(e) for e in edges]
    for i in range(n):
        for j in range(i + 1, n):
            if not _bbox_touch(boxes[i], boxes[j]):
                continue
            adjacent = (j == i + 1) or (i == 0 and j == n - 1)
            hit = segment_hits(edges[i][0], edges[i][1], edges[j][0], edges[j][1])
            if hit[0] == HIT_NONE:
                continue
            if hit[0] == HIT_OVERLAP:
                raise GeomError("edges %d and %d overlap" % (i, j))
            if not adjacent:
                raise GeomError("edges %d and %d cross" % (i, j))
            # adjacent edges may only meet at the shared vertex
            t1, t2 = hit[1], hit[2]
            if j == i + 1:
                ok = t1 == 1 and t2 == 0
            else:  # closing edge: edge j ends where edge 0 starts
                ok = t1 == 0 and t2 == 1
            if not ok:
                raise GeomError("adjacent edges %d and %d re-touch" % (i, j))
    return ensure_ccw(poly)


def point_in_polygon_closed(p: Point2, poly) -> bool:
    """Closed membership: boundary counts as inside.  Exact ray parity.

    A vertex whose height's double differs from p's, or an edge whose
    x span's doubles lie strictly left or right of p's, is decided by
    doubles; only the rest is compared exactly.
    """
    px, py = float(p.x), float(p.y)
    fl = [(float(v.x), float(v.y)) for v in poly]
    below = [fy < py or (fy == py and v.y <= p.y) for v, (_, fy) in zip(poly, fl)]
    inside = False
    for i in range(len(poly)):
        (vx, vy), (wx, wy) = fl[i - 1], fl[i]
        lox, hix = (vx, wx) if vx <= wx else (wx, vx)
        if (lox <= px <= hix and min(vy, wy) <= py <= max(vy, wy)
                and on_segment(p, poly[i - 1], poly[i])):
            return True
        if below[i - 1] != below[i]:
            if px < lox:
                inside = not inside  # the crossing lies right of p
            elif px <= hix:
                # x where the edge crosses the horizontal through p
                v, w = poly[i - 1], poly[i]
                t = (p.y - v.y) / (w.y - v.y)
                if v.x + t * (w.x - v.x) > p.x:
                    inside = not inside
    return inside


# -- rigid motions on the 30-degree lattice ----------------------------

_H3 = ExactScalar(0, Fraction(1, 2))  # sqrt3/2


class RigidMotion:
    """Rotation by a multiple of 30 degrees about a center, in Q(sqrt3)^2.

    Only these rotations keep Q(sqrt3) coordinates closed; any other angle
    is rejected.  apply takes and returns real coordinates, not frame
    points: its results are ExactScalar pairs, in general mixed ones.
    """

    __slots__ = ("angle_deg", "center", "_cos", "_sin")

    def __init__(self, angle_deg: int = 0, center: Point2 = ORIGIN):
        if angle_deg % 30 != 0:
            raise GeomError(
                "rotation angle %r is not a multiple of 30 degrees" % (angle_deg,)
            )
        self.angle_deg = angle_deg % 360
        self.center = center
        c, s = ((ONE, ZERO), (_H3, HALF), (HALF, _H3))[self.angle_deg % 90 // 30]
        for _ in range(self.angle_deg // 90):
            c, s = -s, c
        self._cos, self._sin = c, s

    @classmethod
    def rotation(cls, angle_deg: int, center: Point2 = ORIGIN) -> "RigidMotion":
        return cls(angle_deg, center)

    def apply(self, p: Point2) -> Point2:
        c, s = self._cos, self._sin
        dx = p.x - self.center.x
        dy = p.y - self.center.y
        return Point2(
            self.center.x + c * dx - s * dy,
            self.center.y + s * dx + c * dy,
        )

    def __repr__(self):
        return "RigidMotion(angle_deg=%d, center=%r)" % (self.angle_deg, self.center)
