"""Exact numbers: rationals for frame points, a + b*sqrt3 at the boundary.

Each region is held in one frame (u, y), x = s*u with s in {1, sqrt3}
(see region.py), whose coordinates are rationals: _Q, which is
gmpy2.mpq when available and fractions.Fraction otherwise.  The overlay
sweep, polygon validation and segment containment scale them to ints
over one common denominator (primitives.integer_frame) and compute on
ints; _Q is built again only for the sweep's pieces and areas.

ExactScalar, a + b*sqrt3 with rational a and b, is the value that
crosses the boundary: coordinates handed to Region2, the eight-integer
JSON codec, areas (s times a rational area), and covering_segment's
rational abscissas, the one path whose values mix both halves.  Its
sign is exact: when a and b have opposite signs it compares a^2 with
3 b^2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering

try:
    from gmpy2 import mpq as _Q
except ImportError:
    _Q = Fraction

SQRT3_FLOAT = 1.7320508075688772


def rational(x) -> "_Q":
    """Coerce ints, Fractions, and strings like '1/3' or '0.25' to a rational."""
    if type(x) is _Q:
        return x
    if isinstance(x, int):
        return _Q(x)
    if isinstance(x, Fraction):
        # gmpy2's mpq(Fraction) conversion is unreliable; split it up
        return _Q(x.numerator, x.denominator)
    if isinstance(x, str):
        f = Fraction(x)
        return _Q(f.numerator, f.denominator)
    if isinstance(x, float):
        raise TypeError("refusing silent float->rational coercion: %r" % (x,))
    return _Q(x)


@total_ordering
class ExactScalar:
    """A value a + b*sqrt(3) with rational a, b; immutable."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = rational(a)
        self.b = rational(b)

    @classmethod
    def from_ints(cls, a_num, a_den, b_num, b_den):
        return cls(_Q(a_num, a_den), _Q(b_num, b_den))  # ZeroDivisionError on a 0 denominator

    def to_ints(self):
        """(a_num, a_den, b_num, b_den) in lowest terms, denominators positive."""
        return (
            int(self.a.numerator),
            int(self.a.denominator),
            int(self.b.numerator),
            int(self.b.denominator),
        )

    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction)) or type(other) is _Q:
            return ExactScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        return ExactScalar(a1 * a2 + 3 * b1 * b2, a1 * b2 + b1 * a2)

    __rmul__ = __mul__

    def __neg__(self):
        return ExactScalar(-self.a, -self.b)

    def sign(self) -> int:
        a, b = self.a, self.b
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sa == sb or not sb:
            return sa
        if not sa:
            return sb
        # opposite signs: |a| vs |b| sqrt3 decided by a^2 vs 3 b^2
        return sa if a * a > 3 * b * b else sb

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __lt__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else (self - o).sign() < 0

    def __hash__(self):
        if not self.b:
            # match hash of plain rationals so ExactScalar(q) == q hashes alike
            return hash(self.a)
        return hash((self.a, self.b))

    def __float__(self):
        return float(self.a) + float(self.b) * SQRT3_FLOAT

    def __repr__(self):
        return "ExactScalar(%s, %s)" % (self.a, self.b)


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
HALF = ExactScalar(Fraction(1, 2))
SQRT3 = ExactScalar(0, 1)
INV_SQRT3 = ExactScalar(0, Fraction(1, 3))  # 1/sqrt3 = sqrt3/3


def scalar(x) -> ExactScalar:
    """Coerce x (ExactScalar, int, Fraction, or '1/3'-style string)."""
    if isinstance(x, ExactScalar):
        return x
    return ExactScalar(rational(x), 0)
