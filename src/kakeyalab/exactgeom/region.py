"""Polygonal regions with exact area and segment containment.

A Region2 is a finite union of simple polygons with ExactScalar
coordinates, validated once where it enters: Region2(polygons) checks
and orients each one.  normalize rewrites it as the exact union, the
overlay sweep's interior-disjoint convex pieces with their exact area,
taken as built (_pieces).  Nothing is ever rounded.
"""

from __future__ import annotations

import json

from .overlay import overlay
from .primitives import (
    GeomError,
    Point2,
    Segment2,
    _bbox_touch,
    _seg_bbox,
    point_in_polygon_closed,
    segment_hits,
    HIT_NONE,
    HIT_POINT,
    validate_simple_polygon,
)
from .scalar import ExactScalar, HALF, ONE, ZERO


class Region2:
    """Union of simple CCW polygons; immutable after construction.

    The constructor validates every polygon.  Normalized regions come
    from overlay's pieces through _pieces and carry their exact area.
    """

    __slots__ = ("polygons", "_area")

    def __init__(self, polygons):
        cleaned = tuple(tuple(validate_simple_polygon(p)) for p in polygons)
        object.__setattr__(self, "polygons", cleaned)
        object.__setattr__(self, "_area", None)

    def __setattr__(self, name, value):
        raise AttributeError("Region2 is immutable")

    @classmethod
    def from_polygon(cls, vertices) -> "Region2":
        return cls((list(vertices),))

    def __repr__(self):
        return "Region2(<%d polygons>)" % len(self.polygons)

    def to_json(self) -> str:
        """Canonical byte-exact encoding.

        Each vertex is eight integers: numerator/denominator of the
        rational part then of the sqrt(3) coefficient, for x then y.
        """
        polys = [
            [list(v.x.to_ints()) + list(v.y.to_ints()) for v in poly]
            for poly in self.polygons
        ]
        return json.dumps({"polygons": polys}, separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Region2":
        return cls(_decode_polygons(json.loads(text)["polygons"]))


def _decode_polygons(encoded) -> list[list[Point2]]:
    """Vertex lists from the eight-integer encoding of Region2.to_json."""
    polys = []
    for poly in encoded:
        vs = []
        for enc in poly:
            if len(enc) != 8:
                raise GeomError("vertex encoding must have 8 integers")
            vs.append(Point2(ExactScalar.from_ints(*enc[:4]),
                             ExactScalar.from_ints(*enc[4:])))
        polys.append(vs)
    return polys


def _pieces(pieces, area: ExactScalar) -> Region2:
    """A normalized region from overlay's output, taken as built."""
    r = object.__new__(Region2)
    object.__setattr__(r, "polygons", tuple(map(tuple, pieces)))
    object.__setattr__(r, "_area", area)
    return r


def normalize(a: Region2) -> Region2:
    """Rewrite as interior-disjoint convex pieces with cached exact area."""
    if a._area is not None:
        return a
    return _pieces(*overlay([list(map(list, a.polygons))]))


def region_area(a: Region2) -> ExactScalar:
    return normalize(a)._area


def contains_segment(a: Region2, s: Segment2) -> bool:
    """True iff the whole closed segment lies in the closed region.

    Exact: split s at every boundary crossing, then each open piece is
    entirely in or out, decided at its rational-parameter midpoint.
    """
    d = s.q - s.p
    # candidate parameters: segment ends plus every boundary hit; only
    # polygons near the segment can contribute hits or contain its points
    ts = {ZERO, ONE}
    sb = _seg_bbox(s.p, s.q)
    near = [p for p in a.polygons if _bbox_touch(sb, _poly_bbox(p))]
    for poly in near:
        n = len(poly)
        for i in range(n):
            v = poly[i]
            w = poly[(i + 1) % n]
            if not _bbox_touch(sb, _seg_bbox(v, w)):
                continue
            hit = segment_hits(s.p, s.q, v, w)
            if hit[0] == HIT_NONE:
                continue
            if hit[0] == HIT_POINT:
                ts.add(hit[1])
            else:
                t0, t1 = hit[1]
                ts.add(t0)
                ts.add(t1)
    order = sorted(ts)
    for i in range(len(order) - 1):
        mid = (order[i] + order[i + 1]) * HALF
        pt = Point2(s.p.x + d.x * mid, s.p.y + d.y * mid)
        if not any(point_in_polygon_closed(pt, list(poly)) for poly in near):
            return False
    return True


def _poly_bbox(poly):
    xs = [float(v.x) for v in poly]
    ys = [float(v.y) for v in poly]
    return min(xs), max(xs), min(ys), max(ys)
