"""Exact plane geometry with coordinates in Q(sqrt 3).

The height-1 equilateral triangle, its dyadic vertical cuts, and every
rotation by a multiple of 30 degrees have coordinates of the form
a + b*sqrt(3) with rational a, b.  A region never needs the whole field:
it is held in one frame, x = s*u with s in {1, sqrt3}, on plain
rationals (u, y), so the cut-and-shift pipeline is exact and cheap:
areas are equalities, not tolerances.
"""

from .scalar import ExactScalar, HALF, INV_SQRT3, ONE, SQRT3, ZERO, rational
from .primitives import (
    GeomError,
    Point2,
    Segment2,
    HIT_NONE,
    HIT_OVERLAP,
    HIT_POINT,
    integer_frame,
    point_in_polygon,
    point_in_polygon_closed,
    segment_hits,
    signed_area2,
    validate_simple_polygon,
)
from .region import (
    Region2,
    contains_segment,
    normalize,
    region_area,
)

__all__ = [
    "ExactScalar",
    "GeomError",
    "HALF",
    "HIT_NONE",
    "HIT_OVERLAP",
    "HIT_POINT",
    "INV_SQRT3",
    "ONE",
    "Point2",
    "Region2",
    "SQRT3",
    "Segment2",
    "ZERO",
    "contains_segment",
    "integer_frame",
    "normalize",
    "point_in_polygon",
    "point_in_polygon_closed",
    "rational",
    "region_area",
    "segment_hits",
    "signed_area2",
    "validate_simple_polygon",
]
