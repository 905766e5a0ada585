"""Exact arithmetic over the quadratic field Q(sqrt 3).

Every coordinate in the planar constructions lives in Q(sqrt 3): the base
triangle has vertices (0, 1) and (+-1/sqrt3, 0), the cut-and-shift
translations are rational multiples of sqrt 3, and rotations by multiples
of 30 degrees have matrix entries in {0, +-1/2, +-1, +-sqrt3/2}.  Closing
the arithmetic over this field lets the boolean region machinery decide
every predicate exactly, with no epsilon anywhere.

The Perron pipeline is graded: every vertex has x in sqrt3*Q and y in Q
(the base corners are +-1/sqrt3 = +-sqrt3/3, the shifts are rational
multiples of sqrt 3, and the 120-degree rotations about the apex (0, 1)
map that lattice to itself), so slopes and crossing abscissas are pure
sqrt 3 multiples and intercepts, heights and segment parameters are pure
rationals.  The operators therefore take short paths when an operand's
rational or sqrt 3 half is zero, and fall back to the general formulas
only for mixed values.

Rationals are gmpy2.mpq when available (much faster gcd arithmetic in the
sweep hot loops), plain fractions.Fraction otherwise; the two are
interchangeable for everything done here.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _Q
except ImportError:
    _Q = Fraction

_SQRT3_FLOAT = 1.7320508075688772


def rational(x) -> "_Q":
    """Coerce ints, Fractions, and strings like '1/3' or '0.25' to a rational."""
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


class ExactScalar:
    """A value a + b*sqrt(3) with rational a, b kept in lowest terms.

    Instances are treated as immutable.  Sign evaluation is exact: when a
    and b have opposite signs the comparison reduces to a^2 vs 3 b^2.

    Graded operands, whose a or b is zero, skip the zero half: + and -
    touch only the nonzero part, * is one rational product (times 3 for
    sqrt3 * sqrt3), / by a pure rational or pure sqrt 3 value divides
    directly without forming a^2 - 3 b^2, and <, <=, >, >= between
    operands of one grade compare their nonzero parts.  Mixed operands
    use the general formulas.
    """

    __slots__ = ("a", "b", "_f")

    def __init__(self, a=0, b=0):
        self.a = rational(a)
        self.b = rational(b)
        self._f = None

    @classmethod
    def from_ints(cls, a_num, a_den, b_num, b_den):
        if a_den == 0 or b_den == 0:
            raise ZeroDivisionError("zero denominator in serialized scalar")
        return _make(_Q(a_num, a_den), _Q(b_num, b_den))

    def to_ints(self):
        """(a_num, a_den, b_num, b_den) in lowest terms, denominators positive."""
        return (
            int(self.a.numerator),
            int(self.a.denominator),
            int(self.b.numerator),
            int(self.b.denominator),
        )

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return _make(_Q(other), _Q(0))
        if type(other) is type(self.a):
            return _make(other, _Q(0))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        if not b1 and not b2:
            return _make(a1 + a2, b1)
        if not a1 and not a2:
            return _make(a1, b1 + b2)
        return _make(a1 + a2, b1 + b2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._minus(o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._minus(self)

    def _minus(self, o):
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        if not b1 and not b2:
            return _make(a1 - a2, b1)
        if not a1 and not a2:
            return _make(a1, b1 - b2)
        return _make(a1 - a2, b1 - b2)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        if not b1 and not b2:
            return _make(a1 * a2, b1)
        if not a1 and not a2:
            return _make(b1 * b2 * 3, a1)
        if not b1 and not a2:
            return _make(a2, a1 * b2)
        if not a1 and not b2:
            return _make(a1, b1 * a2)
        # (a1 + b1 r)(a2 + b2 r) = a1 a2 + 3 b1 b2 + (a1 b2 + b1 a2) r
        return _make(a1 * a2 + 3 * b1 * b2, a1 * b2 + b1 * a2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._over(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._over(self)

    def _over(self, o):
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        if not b2:
            if not a2:
                raise ZeroDivisionError("division by zero ExactScalar")
            # (a1 + b1 r) / a2
            return _make(a1 / a2 if a1 else a1, b1 / a2 if b1 else b1)
        if not a2:
            # (a1 + b1 r) / (b2 r) = b1 / b2 + (a1 / (3 b2)) r
            return _make(b1 / b2 if b1 else b1, a1 / (b2 * 3) if a1 else a1)
        d = a2 * a2 - 3 * b2 * b2
        # 1/(a + b r) = (a - b r)/(a^2 - 3 b^2); d != 0 as sqrt 3 is irrational
        return self * _make(a2 / d, -b2 / d)

    def __neg__(self):
        return _make(-self.a, -self.b)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- ordering -------------------------------------------------------

    def sign(self) -> int:
        a, b = self.a, self.b
        if not b:
            return 1 if a > 0 else (-1 if a < 0 else 0)
        if not a:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: |a| vs |b| sqrt3 decided by a^2 vs 3 b^2
        lhs = a * a
        rhs = 3 * b * b
        if a > 0:
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def _cmp(self, o) -> int:
        """Sign of self - o; same-grade operands compare their one part."""
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        if not b1 and not b2:
            x, y = a1, a2
        elif not a1 and not a2:
            x, y = b1, b2
        else:
            return self._minus(o).sign()
        return 1 if x > y else (-1 if x < y else 0)

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) >= 0

    def __hash__(self):
        if not self.b:
            # match hash of plain rationals so ExactScalar(q) == q hashes alike
            return hash(self.a)
        return hash((self.a, self.b))

    # -- conversions ----------------------------------------------------

    def __float__(self):
        f = self._f
        if f is None:
            f = float(self.a) + float(self.b) * _SQRT3_FLOAT
            self._f = f
        return f

    def is_rational(self) -> bool:
        return not self.b

    def __repr__(self):
        return "ExactScalar(%s, %s)" % (self.a, self.b)

    def __str__(self):
        if not self.b:
            return str(self.a)
        if not self.a:
            return "%s*sqrt3" % self.b
        return "%s%s%s*sqrt3" % (self.a, "+" if self.b > 0 else "-", abs(self.b))


def _make(a, b):
    # internal fast path: a, b already rationals
    s = object.__new__(ExactScalar)
    s.a = a
    s.b = b
    s._f = None
    return s

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
