"""Points, segments, rigid motions, and exact incidence predicates."""

from __future__ import annotations

from fractions import Fraction

from .scalar import ExactScalar, ZERO, ONE, HALF, scalar


class GeomError(ValueError):
    """Raised for degenerate or out-of-contract geometric input."""


class Point2:
    """A point (or vector) with ExactScalar coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x if isinstance(x, ExactScalar) else scalar(x)
        self.y = y if isinstance(y, ExactScalar) else scalar(y)

    def __add__(self, other):
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return Point2(self.x - other.x, self.y - other.y)

    def __neg__(self):
        return Point2(-self.x, -self.y)

    def __eq__(self, other):
        if not isinstance(other, Point2):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return "Point2(%s, %s)" % (self.x, self.y)


ORIGIN = Point2(ZERO, ZERO)


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


def cross(o: Point2, a: Point2, b: Point2) -> ExactScalar:
    """Cross product (a - o) x (b - o)."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def dot(o: Point2, a: Point2, b: Point2) -> ExactScalar:
    return (a.x - o.x) * (b.x - o.x) + (a.y - o.y) * (b.y - o.y)


def orient(o: Point2, a: Point2, b: Point2) -> int:
    """Sign of the turn o->a->b: +1 left, -1 right, 0 collinear."""
    return cross(o, a, b).sign()


def on_segment(p: Point2, a: Point2, b: Point2) -> bool:
    """Is p on the closed segment [a, b]?  Assumes a != b."""
    if orient(a, b, p) != 0:
        return False
    t_num = dot(a, p, b)          # (p-a).(b-a)
    if t_num.sign() < 0:
        return False
    return t_num <= dot(a, b, b)  # |b-a|^2


_SLACK = 1e-9  # floats of coordinates err far below this


def _seg_bbox(p: Point2, q: Point2):
    xs = (float(p.x), float(q.x))
    ys = (float(p.y), float(q.y))
    return min(xs), max(xs), min(ys), max(ys)


def _bbox_touch(a, b) -> bool:
    return (
        a[0] <= b[1] + _SLACK
        and b[0] <= a[1] + _SLACK
        and a[2] <= b[3] + _SLACK
        and b[2] <= a[3] + _SLACK
    )


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

    Parameters are ExactScalar (rational in practice).  Both segments must
    be non-degenerate.
    """
    d1 = q1 - p1
    d2 = q2 - p2
    denom = d1.x * d2.y - d1.y * d2.x
    r = p2 - p1
    if denom:
        t1 = (r.x * d2.y - r.y * d2.x) / denom
        t2 = (r.x * d1.y - r.y * d1.x) / denom
        if ZERO <= t1 <= ONE and ZERO <= t2 <= ONE:
            return (HIT_POINT, t1, t2)
        return (HIT_NONE,)
    # parallel
    if (r.x * d1.y - r.y * d1.x).sign() != 0:
        return (HIT_NONE,)
    # collinear: parametrize seg2 endpoints on seg1
    dd = d1.x * d1.x + d1.y * d1.y
    tp = (r.x * d1.x + r.y * d1.y) / dd
    tq = ((q2.x - p1.x) * d1.x + (q2.y - p1.y) * d1.y) / dd
    lo, hi = (tp, tq) if tp <= tq else (tq, tp)
    lo = lo if lo > ZERO else ZERO
    hi = hi if hi < ONE else ONE
    c = (hi - lo).sign()
    if c < 0:
        return (HIT_NONE,)
    # map back to parameters on segment 2
    dd2 = d2.x * d2.x + d2.y * d2.y

    def to_t2(t):
        pt_x = p1.x + d1.x * t
        pt_y = p1.y + d1.y * t
        return ((pt_x - p2.x) * d2.x + (pt_y - p2.y) * d2.y) / dd2

    if c == 0:
        return (HIT_POINT, lo, to_t2(lo))
    return (HIT_OVERLAP, (lo, hi), (to_t2(lo), to_t2(hi)))


# -- polygons ----------------------------------------------------------


def signed_area2(poly) -> ExactScalar:
    """Twice the signed shoelace area of a vertex list."""
    acc = ZERO
    n = len(poly)
    for i in range(n):
        a = poly[i]
        b = poly[(i + 1) % n]
        acc = acc + (a.x * b.y - b.x * a.y)
    return acc


def polygon_area(poly) -> ExactScalar:
    return abs(signed_area2(poly)) * HALF


def ensure_ccw(poly):
    s = signed_area2(poly).sign()
    if s == 0:
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
    boxes = [_seg_bbox(*e) for e in edges]
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
                ok = t1 == ONE and t2 == ZERO
            else:  # closing edge: edge j ends where edge 0 starts
                ok = t1 == ZERO and t2 == ONE
            if not ok:
                raise GeomError("adjacent edges %d and %d re-touch" % (i, j))
    return ensure_ccw(poly)


def point_in_polygon_closed(p: Point2, poly) -> bool:
    """Closed membership: boundary counts as inside.  Exact ray parity."""
    n = len(poly)
    px, py = float(p.x), float(p.y)
    inside = False
    for i in range(n):
        v = poly[i]
        w = poly[(i + 1) % n]
        box = _seg_bbox(v, w)
        if _bbox_touch(box, (px, px, py, py)) and on_segment(p, v, w):
            return True
        below_v = v.y <= p.y
        below_w = w.y <= p.y
        if below_v != below_w:
            if px + _SLACK < box[0]:
                inside = not inside  # the crossing lies right of p
            elif px - _SLACK <= box[1]:
                # x where the edge crosses the horizontal through p
                t = (p.y - v.y) / (w.y - v.y)
                xat = v.x + t * (w.x - v.x)
                if xat > p.x:
                    inside = not inside
    return inside


# -- rigid motions on the 30-degree lattice ----------------------------

_H3 = ExactScalar(0, Fraction(1, 2))  # sqrt3/2
_COS_SIN = {
    0: (ONE, ZERO),
    30: (_H3, HALF),
    60: (HALF, _H3),
    90: (ZERO, ONE),
    120: (-HALF, _H3),
    150: (-_H3, HALF),
    180: (-ONE, ZERO),
    210: (-_H3, -HALF),
    240: (-HALF, -_H3),
    270: (ZERO, -ONE),
    300: (HALF, -_H3),
    330: (_H3, -HALF),
}


class RigidMotion:
    """Rotation by a multiple of 30 degrees about a center.

    Only these rotations keep Q(sqrt3) coordinates closed; any other angle
    is rejected.
    """

    __slots__ = ("angle_deg", "center", "_cos", "_sin")

    def __init__(self, angle_deg: int = 0, center: Point2 = ORIGIN):
        if angle_deg % 30 != 0:
            raise GeomError(
                "rotation angle %r is not a multiple of 30 degrees" % (angle_deg,)
            )
        self.angle_deg = angle_deg % 360
        self.center = center
        self._cos, self._sin = _COS_SIN[self.angle_deg]

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
