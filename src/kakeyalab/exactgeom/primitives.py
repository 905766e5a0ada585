"""Points, segments, and exact incidence predicates.

Polygons and segments arrive as Point2s of plain rationals (frame
points, see Point2).  The predicates compute in an integer frame:
integer_frame scales a set of polygons by the least common denominator
D of all their coordinates, so every vertex is a pair of ints and every
sign is an integer determinant.  Segment parameters and breakpoint
abscissas are ratios (n, d) of ints with d > 0; no rational arithmetic
runs inside a predicate.  Where doubles prune (region boxes), they are
int quotients, correctly rounded hence monotone, so a double box
touches whenever the exact box does.
"""

from __future__ import annotations

import math
from functools import cmp_to_key

from .scalar import ExactScalar, rational


class GeomError(ValueError):
    """Raised for degenerate or out-of-contract geometric input."""


class Point2:
    """A pair of exact coordinates.

    In a region, a frame point: rationals (u, y), x = s*u for the
    region's s in {1, sqrt3}, which signs, orders and segment parameters
    do not depend on.  At the boundary (Region2's input, covering_segment
    for a rational abscissa) it holds real ExactScalar coordinates.
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x if isinstance(x, ExactScalar) else rational(x)
        self.y = y if isinstance(y, ExactScalar) else rational(y)

    def __eq__(self, other):
        if not isinstance(other, Point2):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return "Point2(%s, %s)" % (self.x, self.y)


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


def integer_frame(polys):
    """(D, int polygons): D the least common denominator of every frame
    coordinate of polys, and each vertex (u, y) as the int pair (u*D, y*D).

    Plain Python ints, also when the rationals are gmpy2's."""
    dens = {c.denominator for poly in polys for p in poly for c in (p.x, p.y)}
    D = math.lcm(*dens)
    scale = {d: D // int(d) for d in dens}
    return D, [[(int(p.x.numerator) * scale[p.x.denominator],
                 int(p.y.numerator) * scale[p.y.denominator]) for p in poly] for poly in polys]


def reduced(n, d):
    """The ratio (n, d), d > 0, in lowest terms."""
    g = math.gcd(n, d)
    return n // g, d // g


def _ratio_cmp(r, s):
    c = r[0] * s[1] - s[0] * r[1]
    return (c > 0) - (c < 0)


def ratio_sorted(ratios):
    """Ratios (n, d), d > 0, in increasing order of n/d, exactly."""
    out = sorted(ratios, key=lambda r: r[0] / r[1])
    out.sort(key=cmp_to_key(_ratio_cmp))  # in order bar double ties, so about n compares
    return out


def _bbox(points):
    xs = [v[0] for v in points]
    ys = [v[1] for v in points]
    return min(xs), max(xs), min(ys), max(ys)


def _bbox_touch(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]


# segment_hits result kinds
HIT_NONE = "none"
HIT_POINT = "point"
HIT_OVERLAP = "overlap"


def segment_hits(p1, q1, p2, q2):
    """Classify the intersection of closed segments [p1,q1] and [p2,q2].

    The ends are int pairs of one integer frame.  Returns one of
        (HIT_NONE,)
        (HIT_POINT, t1, t2)            parameters on each segment, in [0, 1]
        (HIT_OVERLAP, (a1, b1), (a2, b2))   collinear overlap, a<=b on seg 1

    Parameters are ratios (n, d) with d > 0, not reduced.  Both segments
    must be non-degenerate.
    """
    d1x, d1y = q1[0] - p1[0], q1[1] - p1[1]
    d2x, d2y = q2[0] - p2[0], q2[1] - p2[1]
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    den = d1x * d2y - d1y * d2x
    if den:
        n1 = rx * d2y - ry * d2x
        n2 = rx * d1y - ry * d1x
        if den < 0:
            den, n1, n2 = -den, -n1, -n2
        if 0 <= n1 <= den and 0 <= n2 <= den:
            return (HIT_POINT, (n1, den), (n2, den))
        return (HIT_NONE,)
    # parallel
    if rx * d1y - ry * d1x:
        return (HIT_NONE,)
    # collinear: parametrize seg2 endpoints on seg1, over |d1|^2
    dd = d1x * d1x + d1y * d1y
    tp = rx * d1x + ry * d1y
    tq = (q2[0] - p1[0]) * d1x + (q2[1] - p1[1]) * d1y
    lo, hi = (tp, tq) if tp <= tq else (tq, tp)
    lo, hi = max(lo, 0), min(hi, dd)
    if hi < lo:
        return (HIT_NONE,)
    # the point at t = a/dd on seg 1 is at ((p1 - p2).d2 dd + a d1.d2) / (dd |d2|^2) on seg 2
    c0 = -(rx * d2x + ry * d2y) * dd
    c1 = d1x * d2x + d1y * d2y
    den2 = dd * (d2x * d2x + d2y * d2y)
    if hi == lo:
        return (HIT_POINT, (lo, dd), (c0 + lo * c1, den2))
    return (HIT_OVERLAP, ((lo, dd), (hi, dd)), ((c0 + lo * c1, den2), (c0 + hi * c1, den2)))


# -- polygons ----------------------------------------------------------


def signed_area2(poly):
    """Twice the signed shoelace area of a list of int pairs."""
    return sum(poly[i - 1][0] * v[1] - v[0] * poly[i - 1][1] for i, v in enumerate(poly))


def validate_simple_polygon(poly):
    """Check a vertex list is a simple polygon with positive area.

    Returns the CCW-oriented copy; raises GeomError with a diagnostic
    otherwise.  Exact tests, in the polygon's own integer frame, on the
    edge pairs whose bounding boxes touch, in (i, j) order, so the first
    defect reported is the first of all.
    """
    n = len(poly)
    if n < 3:
        raise GeomError("polygon needs >= 3 vertices, got %d" % n)
    _, (pts,) = integer_frame([poly])
    for i in range(n):
        if pts[i] == pts[(i + 1) % n]:
            raise GeomError("repeated consecutive vertex at index %d" % i)
    if len(set(pts)) != n:
        raise GeomError("polygon repeats a vertex")
    edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
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
            (n1, d1), (n2, d2) = hit[1], hit[2]
            if j == i + 1:
                ok = n1 == d1 and n2 == 0
            else:  # closing edge: edge j ends where edge 0 starts
                ok = n1 == 0 and n2 == d2
            if not ok:
                raise GeomError("adjacent edges %d and %d re-touch" % (i, j))
    s = signed_area2(pts)
    if not s:
        raise GeomError("polygon has zero area")
    return list(poly) if s > 0 else list(reversed(poly))


def point_in_polygon(x, y, m, poly) -> bool:
    """Closed membership of the point (x/m, y/m), m > 0, in a polygon of
    int pairs: boundary counts as inside.  Exact ray parity; an edge
    whose height range misses the point's is decided by its two
    heights alone."""
    inside = False
    vx, vy = poly[-1]
    dv = vy * m - y
    for wx, wy in poly:
        dw = wy * m - y
        if dv <= 0 <= dw or dw <= 0 <= dv:
            if dv == dw:  # horizontal, at the point's height
                if min(vx, wx) * m <= x <= max(vx, wx) * m:
                    return True
            else:
                c = (vx - wx) * dv - (wy - vy) * (x - vx * m)  # (w - v) x (p - v), times m
                if not c:
                    return True
                # the crossing lies right of p iff p is left of an upward edge
                if (dv <= 0) != (dw <= 0) and (c > 0) == (wy > vy):
                    inside = not inside
        vx, vy, dv = wx, wy, dw
    return inside


def point_in_polygon_closed(p: Point2, poly) -> bool:
    """Closed membership of a frame point in a polygon of frame points."""
    _, ((pt, *ring),) = integer_frame([[p, *poly]])
    return point_in_polygon(pt[0], pt[1], 1, ring)

