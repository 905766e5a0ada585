"""Polygonal regions with exact area and segment containment.

A Region2 is a finite union of simple polygons with ExactScalar
coordinates.  normalize rewrites it as the exact union: pairwise
interior-disjoint convex pieces, so the area functional is a plain
shoelace sum.  Rational magnitudes grow at crossing points (numerators
and denominators multiply); nothing is ever rounded.
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
    polygon_area,
    segment_hits,
    HIT_NONE,
    HIT_POINT,
    validate_simple_polygon,
)
from .scalar import ExactScalar, HALF, ONE, ZERO


class Region2:
    """Union of simple CCW polygons; immutable after construction."""

    __slots__ = ("polygons", "_disjoint", "_area")

    def __init__(self, polygons, _disjoint: bool = False, _area: ExactScalar | None = None):
        cleaned = tuple(tuple(validate_simple_polygon(p)) for p in polygons)
        object.__setattr__(self, "polygons", cleaned)
        object.__setattr__(self, "_disjoint", _disjoint or len(cleaned) <= 1)
        object.__setattr__(self, "_area", _area)

    def __setattr__(self, name, value):
        raise AttributeError("Region2 is immutable")

    @classmethod
    def empty(cls) -> "Region2":
        return cls((), _disjoint=True, _area=ZERO)

    @classmethod
    def from_polygon(cls, vertices) -> "Region2":
        return cls((list(vertices),))

    def is_empty(self) -> bool:
        return not self.polygons

    def __eq__(self, other):
        if not isinstance(other, Region2):
            return NotImplemented
        return self.polygons == other.polygons

    def __hash__(self):
        return hash(self.polygons)

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


def normalize(a: Region2) -> Region2:
    """Rewrite as interior-disjoint convex pieces with cached exact area."""
    if a._disjoint and a._area is not None:
        return a
    if a.is_empty():
        return Region2.empty()
    pieces, area = overlay([list(map(list, a.polygons))])
    return Region2(pieces, _disjoint=True, _area=area)


def region_area(a: Region2) -> ExactScalar:
    if a._area is not None:
        return a._area
    if a._disjoint:
        total = ZERO
        for poly in a.polygons:
            total = total + polygon_area(list(poly))
        return total
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
