"""Polygonal regions with exact area and segment containment.

A Region2 is a finite union of simple polygons held in one frame:
rationals (u, y) with x = s*u, s = sqrt3 if region.sqrt3 else 1.  The
frame is fixed where a region enters (Region2(polygons), from_json):
x in sqrt3*Q and y in Q give s = sqrt3, Q^2 gives s = 1, and a region
needing both, or a mixed a + b*sqrt3 coordinate, is refused with
GeomError.  Each polygon is validated once there.  normalize rewrites
a region as the overlay sweep's interior-disjoint convex pieces, taken
as built (_pieces); the area is s times theirs.  Nothing is rounded.
"""

from __future__ import annotations

import json

from .overlay import overlay
from .primitives import (
    GeomError,
    Point2,
    Segment2,
    _bbox,
    _bbox_touch,
    point_in_polygon_closed,
    segment_hits,
    HIT_OVERLAP,
    HIT_POINT,
    validate_simple_polygon,
)
from .scalar import SQRT3_FLOAT, ExactScalar, _Q, rational


class Region2:
    """Union of simple CCW polygons of frame points; immutable.

    The constructor takes real coordinates (ExactScalar or rational),
    fixes the frame and validates every polygon.  Normalized regions
    come from overlay's pieces through _pieces and carry their area.
    """

    __slots__ = ("polygons", "sqrt3", "_area")

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
    for name, value in zip(Region2.__slots__, (polygons, sqrt3, area)):
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


def contains_segment(a: Region2, s: Segment2) -> bool:
    """True iff the whole closed segment lies in the closed region.

    s is given in the region's frame.  Exact: split s at every boundary
    crossing, then each open piece is entirely in or out, decided at its
    rational-parameter midpoint, against the polygons whose boxes hold it.
    """
    d = s.q - s.p
    # candidate parameters: segment ends plus every boundary hit; only
    # polygons near the segment can contribute hits or contain its points
    ts = {_Q(0), _Q(1)}
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
    for i in range(len(order) - 1):
        mid = (order[i] + order[i + 1]) / 2
        pt = Point2(s.p.x + d.x * mid, s.p.y + d.y * mid)
        fx, fy = float(pt.x), float(pt.y)
        if not any(point_in_polygon_closed(pt, poly) for poly, box in near
                   if _bbox_touch(box, (fx, fx, fy, fy))):
            return False
    return True
