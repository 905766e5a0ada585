"""Rotations by multiples of 30 degrees in Q(sqrt3)^2, on real coordinates.

The reference for perron.apex_turn, which turns sqrt3-frame points
about the apex by a rational map of (u, y), and for building mixed
points no frame holds (a 30-degree turn of Q^2).
"""

from fractions import Fraction

from kakeyalab.exactgeom import GeomError, Point2
from kakeyalab.exactgeom.scalar import HALF, ONE, ZERO, ExactScalar

_H3 = ExactScalar(0, Fraction(1, 2))  # sqrt3/2

ORIGIN = Point2(0, 0)


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
