"""Polygonal regions with exact area and segment containment.

A Region2 is a finite union of simple polygons held in one frame:
rationals (u, y) with x = s*u, s = sqrt3 if region.sqrt3 else 1.  The
frame is fixed where a region enters (Region2(polygons), from_json):
x in sqrt3*Q and y in Q give s = sqrt3, Q^2 gives s = 1, and a region
needing both, or a mixed a + b*sqrt3 coordinate, is refused with
GeomError.  Each polygon is validated once there.  normalize rewrites
a region as the overlay sweep's interior-disjoint convex pieces, taken
as built (_pieces); the area is s times theirs.  Nothing is rounded.

contains_segment runs on the region's integer frame (primitives.
integer_frame): the common denominator D and every vertex as an int
pair, built on first use and kept, so a region that is only decoded,
measured or drawn never pays for it.
"""

from __future__ import annotations

import json
import math

from .overlay import overlay
from .primitives import (
    GeomError,
    Point2,
    Segment2,
    _bbox,
    _bbox_touch,
    integer_frame,
    point_in_polygon,
    ratio_sorted,
    reduced,
    segment_hits,
    HIT_OVERLAP,
    HIT_POINT,
    validate_simple_polygon,
)
from .scalar import SQRT3_FLOAT, ExactScalar, rational


class Region2:
    """Union of simple CCW polygons of frame points; immutable.

    The constructor takes real coordinates (ExactScalar or rational),
    fixes the frame and validates every polygon.  Normalized regions
    come from overlay's pieces through _pieces and carry their area.
    """

    __slots__ = ("polygons", "sqrt3", "_area", "_ints")

    def __init__(self, polygons):
        polys, sqrt3 = _to_frame(polygons)
        _set(self, tuple(tuple(validate_simple_polygon(p)) for p in polys), sqrt3, None)

    def __setattr__(self, name, value):
        raise AttributeError("Region2 is immutable")

    @classmethod
    def from_polygon(cls, vertices) -> "Region2":
        return cls((list(vertices),))

    def __repr__(self):
        return "Region2(<%d polygons>)" % len(self.polygons)

    def floats(self) -> list[list[tuple[float, float]]]:
        """Vertex coordinates as doubles; x rounds as float(a + b*sqrt3) does."""
        sx = SQRT3_FLOAT if self.sqrt3 else 1.0
        return [[(float(p.x) * sx, float(p.y)) for p in poly] for poly in self.polygons]

    def to_json(self) -> str:
        """Canonical byte-exact encoding.

        Each vertex is eight integers: numerator/denominator of the
        rational part then of the sqrt(3) coefficient, for x then y.
        """
        def ints(q):
            return [int(q.numerator), int(q.denominator)]

        zero = [0, 1]
        polys = [[(zero + ints(v.x) if self.sqrt3 else ints(v.x) + zero) + ints(v.y) + zero
                  for v in poly] for poly in self.polygons]
        return json.dumps({"polygons": polys}, separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Region2":
        return cls(_decode_polygons(json.loads(text)["polygons"]))


def _decode_polygons(encoded) -> list[list[Point2]]:
    """Vertex lists from the eight-integer encoding of Region2.to_json."""
    if any(len(enc) != 8 for poly in encoded for enc in poly):
        raise GeomError("vertex encoding must have 8 integers")
    return [[Point2(ExactScalar.from_ints(*enc[:4]), ExactScalar.from_ints(*enc[4:]))
             for enc in poly] for poly in encoded]


def _halves(v):
    """(a, b) with v = a + b*sqrt3."""
    return (v.a, v.b) if isinstance(v, ExactScalar) else (rational(v), 0)


def _to_frame(polygons, sqrt3=None):
    """Frame points of polygons in real coordinates, and the frame.

    sqrt3=None picks the frame from the vertices; GeomError if a vertex
    does not lie in it.
    """
    parts = [[_halves(p.x) + _halves(p.y) for p in poly] for poly in polygons]
    if sqrt3 is None:
        sqrt3 = any(v[1] for poly in parts for v in poly)
    for xa, xb, ya, yb in (v for poly in parts for v in poly):
        if yb or (xa if sqrt3 else xb):
            raise GeomError("vertex (%s + %s*sqrt3, %s + %s*sqrt3) is outside the frame "
                            "x in %s, y in Q" % (xa, xb, ya, yb, "sqrt3*Q" if sqrt3 else "Q"))
    return [[Point2(v[1] if sqrt3 else v[0], v[2]) for v in poly] for poly in parts], sqrt3


def _set(r, polygons, sqrt3, area):
    for name, value in zip(Region2.__slots__, (polygons, sqrt3, area, None)):
        object.__setattr__(r, name, value)


def _pieces(pieces, area, sqrt3: bool) -> Region2:
    """A normalized region from overlay's output, taken as built."""
    r = object.__new__(Region2)
    _set(r, tuple(map(tuple, pieces)), sqrt3, ExactScalar(0, area) if sqrt3 else ExactScalar(area))
    return r


def normalize(a: Region2) -> Region2:
    """Rewrite as interior-disjoint convex pieces with cached exact area."""
    if a._area is not None:
        return a
    return _pieces(*overlay([list(map(list, a.polygons))]), a.sqrt3)


def region_area(a: Region2) -> ExactScalar:
    return normalize(a)._area


def _integer_view(a: Region2):
    """(D, int polygons, their double boxes in frame units), made once."""
    if a._ints is None:
        D, polys = integer_frame(a.polygons)
        boxes = [_bbox([(x / D, y / D) for x, y in poly]) for poly in polys]
        object.__setattr__(a, "_ints", (D, polys, boxes))
    return a._ints


def contains_segment(a: Region2, s: Segment2) -> bool:
    """True iff the whole closed segment lies in the closed region.

    s is given in the region's frame.  Exact, on ints: put s and the
    region in one integer frame, split s at every boundary hit, then each
    open piece is entirely in or out, decided at its midpoint, against
    the polygons whose boxes hold it.
    """
    D, polys, boxes = _integer_view(a)
    E, ((p, q),) = integer_frame([[s.p, s.q]])
    L = math.lcm(D, E)
    k, j = L // D, L // E
    p, q = (p[0] * j, p[1] * j), (q[0] * j, q[1] * j)
    # candidate parameters: segment ends plus every boundary hit; only
    # polygons near the segment can contribute hits or contain its points
    sb = _bbox([(p[0] / L, p[1] / L), (q[0] / L, q[1] / L)])
    near = [([(x * k, y * k) for x, y in poly] if k > 1 else poly, box)
            for poly, box in zip(polys, boxes) if _bbox_touch(sb, box)]
    ts = {(0, 1), (1, 1)}
    for poly, _ in near:
        for v, w in zip(poly, poly[1:] + poly[:1]):
            hit = segment_hits(p, q, v, w)
            if hit[0] == HIT_POINT:
                ts.add(reduced(*hit[1]))
            elif hit[0] == HIT_OVERLAP:
                ts.update(reduced(*t) for t in hit[1])
    order = ratio_sorted(ts)
    dx, dy = q[0] - p[0], q[1] - p[1]
    for (n0, d0), (n1, d1) in zip(order, order[1:]):
        n, m = n0 * d1 + n1 * d0, 2 * d0 * d1  # the midpoint parameter n/m
        x, y = p[0] * m + dx * n, p[1] * m + dy * n
        fx, fy = x / (m * L), y / (m * L)
        if not any(point_in_polygon(x, y, m, poly) for poly, box in near
                   if _bbox_touch(box, (fx, fx, fy, fy))):
            return False
    return True
