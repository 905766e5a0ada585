"""Segment containment on rational frame points, kept as an oracle.

This is the path the package used before its integer frame: every
predicate computes on the frame points' rationals (Fraction, or mpq
with gmpy2), with doubles only to skip work.  float() of a rational is
correctly rounded, hence monotone: float(a) < float(b) proves a < b, and
equal doubles fall through to the exact comparison.

    contains_segment(region, segment) -> bool
    segment_hits(p1, q1, p2, q2) -> (kind, t1, t2), rational parameters
    point_in_polygon_closed(p, poly), on_segment(p, a, b), orient(o, a, b)
    polygon_area(poly)
"""

from kakeyalab.exactgeom.primitives import HIT_NONE, HIT_OVERLAP, HIT_POINT, Point2
from kakeyalab.exactgeom.scalar import _Q

_Q0, _Q1 = _Q(0), _Q(1)


def sub(a, b):
    return Point2(a.x - b.x, a.y - b.y)


def cross(o, a, b):
    """Cross product (a - o) x (b - o)."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def dot(o, a, b):
    return (a.x - o.x) * (b.x - o.x) + (a.y - o.y) * (b.y - o.y)


def orient(o, a, b) -> int:
    """Sign of the turn o->a->b: +1 left, -1 right, 0 collinear."""
    c = cross(o, a, b)
    return (c > 0) - (c < 0)


def polygon_area(poly):
    """Area in the polygon's own frame (times s for the real area)."""
    twice = sum((poly[i - 1].x * v.y - v.x * poly[i - 1].y for i, v in enumerate(poly)), _Q0)
    return abs(twice) / 2


def on_segment(p, a, b) -> bool:
    """Is p on the closed segment [a, b]?  Assumes a != b."""
    if cross(a, b, p):
        return False
    return 0 <= dot(a, p, b) <= dot(a, b, b)


def _bbox(points):
    xs = [float(v.x) for v in points]
    ys = [float(v.y) for v in points]
    return min(xs), max(xs), min(ys), max(ys)


def _bbox_touch(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]


def segment_hits(p1, q1, p2, q2):
    """(HIT_NONE,), (HIT_POINT, t1, t2) or (HIT_OVERLAP, (a1, b1), (a2, b2)),
    with rational parameters on each segment."""
    d1 = sub(q1, p1)
    d2 = sub(q2, p2)
    denom = d1.x * d2.y - d1.y * d2.x
    r = sub(p2, p1)
    if denom:
        t1 = (r.x * d2.y - r.y * d2.x) / denom
        t2 = (r.x * d1.y - r.y * d1.x) / denom
        if 0 <= t1 <= 1 and 0 <= t2 <= 1:
            return (HIT_POINT, t1, t2)
        return (HIT_NONE,)
    if r.x * d1.y - r.y * d1.x:
        return (HIT_NONE,)
    dd = d1.x * d1.x + d1.y * d1.y
    tp = (r.x * d1.x + r.y * d1.y) / dd
    tq = ((q2.x - p1.x) * d1.x + (q2.y - p1.y) * d1.y) / dd
    lo, hi = (tp, tq) if tp <= tq else (tq, tp)
    lo = lo if lo > 0 else _Q0
    hi = hi if hi < 1 else _Q1
    if hi < lo:
        return (HIT_NONE,)
    dd2 = d2.x * d2.x + d2.y * d2.y

    def to_t2(t):
        return ((p1.x + d1.x * t - p2.x) * d2.x + (p1.y + d1.y * t - p2.y) * d2.y) / dd2

    if hi == lo:
        return (HIT_POINT, lo, to_t2(lo))
    return (HIT_OVERLAP, (lo, hi), (to_t2(lo), to_t2(hi)))


def point_in_polygon_closed(p, poly) -> bool:
    """Closed membership by ray parity; doubles decide what they can."""
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
                v, w = poly[i - 1], poly[i]
                t = (p.y - v.y) / (w.y - v.y)
                if v.x + t * (w.x - v.x) > p.x:
                    inside = not inside
    return inside


def contains_segment(a, s) -> bool:
    """Split s at every boundary hit and test each piece's rational
    midpoint against the polygons whose boxes hold it."""
    d = sub(s.q, s.p)
    ts = {_Q0, _Q1}
    sb = _bbox((s.p, s.q))
    near = [(p, box) for p in a.polygons if _bbox_touch(sb, box := _bbox(p))]
    for poly, _ in near:
        for v, w in zip(poly, poly[1:] + poly[:1]):
            if not _bbox_touch(sb, _bbox((v, w))):
                continue
            hit = segment_hits(s.p, s.q, v, w)
            if hit[0] == HIT_POINT:
                ts.add(hit[1])
            elif hit[0] == HIT_OVERLAP:
                ts.update(hit[1])
    order = sorted(ts)
    for t0, t1 in zip(order, order[1:]):
        mid = (t0 + t1) / 2
        pt = Point2(s.p.x + d.x * mid, s.p.y + d.y * mid)
        fx, fy = float(pt.x), float(pt.y)
        if not any(point_in_polygon_closed(pt, poly) for poly, box in near
                   if _bbox_touch(box, (fx, fx, fy, fy))):
            return False
    return True
