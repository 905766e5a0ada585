"""Field arithmetic and exact ordering of a + b*sqrt(3) scalars."""

import operator
import random
from decimal import Decimal, getcontext
from fractions import Fraction
from math import gcd

import pytest

from kakeyalab.exactgeom import (
    ExactScalar,
    HALF,
    INV_SQRT3,
    ONE,
    SQRT3,
    ZERO,
)
from kakeyalab.exactgeom.scalar import scalar

getcontext().prec = 60
SQRT3_DEC = Decimal(3).sqrt()


def as_decimal(x: ExactScalar) -> Decimal:
    an, ad, bn, bd = x.to_ints()
    return Decimal(an) / Decimal(ad) + Decimal(bn) / Decimal(bd) * SQRT3_DEC


def rand_scalar(rng, den=12, mag=6):
    a = Fraction(rng.randint(-mag * den, mag * den), rng.randint(1, den))
    b = Fraction(rng.randint(-mag * den, mag * den), rng.randint(1, den))
    return ExactScalar(a, b)


def test_constants():
    assert SQRT3 * SQRT3 == scalar(3)
    assert INV_SQRT3 * SQRT3 == ONE
    assert HALF + HALF == ONE
    assert ZERO + ONE == ONE
    assert INV_SQRT3 == ExactScalar(0, Fraction(1, 3))


def test_field_identities_randomized():
    rng = random.Random(2024)
    for _ in range(200):
        x = rand_scalar(rng)
        y = rand_scalar(rng)
        z = rand_scalar(rng)
        assert (x + y) * z == x * z + y * z
        assert x - y == -(y - x)
        assert (x - y) + y == x
        assert x * ONE == x and x * ZERO == ZERO


def test_ordering_matches_high_precision():
    rng = random.Random(77)
    for _ in range(300):
        x = rand_scalar(rng)
        y = rand_scalar(rng)
        dx, dy = as_decimal(x), as_decimal(y)
        assert (x < y) == (dx < dy)
        assert (x == y) == (dx == dy)
        assert (x > y) == (dx > dy)


def test_sign_near_sqrt3_convergents():
    # p/q walking the continued fraction [1; 1, 2, 1, 2, ...] of sqrt(3);
    # sqrt(3) - p/q shrinks fast but its exact sign must track p^2 vs 3 q^2
    p0, q0, p1, q1 = 1, 0, 1, 1
    for step in range(60):
        k = 1 if step % 2 == 0 else 2
        p0, q0, p1, q1 = p1, q1, k * p1 + p0, k * q1 + q0
        x = ExactScalar(Fraction(-p1, q1), 1)
        expected = 1 if p1 * p1 < 3 * q1 * q1 else -1
        assert x.sign() == expected


def test_tiny_perturbation_ordering():
    eps = ExactScalar(Fraction(1, 10**15), 0)
    x = INV_SQRT3
    assert x < x + eps
    assert x + eps > x
    assert not (x + eps == x)


def test_serialization_roundtrip():
    rng = random.Random(5)
    for _ in range(100):
        x = rand_scalar(rng, den=30, mag=9)
        an, ad, bn, bd = x.to_ints()
        assert ad > 0 and bd > 0
        assert gcd(abs(an), ad) == 1 and gcd(abs(bn), bd) == 1
        y = ExactScalar.from_ints(an, ad, bn, bd)
        assert x == y
        assert x.to_ints() == y.to_ints()


def test_hash_consistency_with_rationals():
    assert hash(scalar(Fraction(1, 2))) == hash(HALF)
    assert scalar(7) == ExactScalar(7, 0)
    assert hash(scalar(7)) == hash(ExactScalar(Fraction(7), Fraction(0)))
    seen = {HALF: "half"}
    assert seen[scalar("1/2")] == "half"


def test_float_coercion_refused():
    with pytest.raises(TypeError):
        scalar(0.5)
    with pytest.raises(TypeError):
        ExactScalar(0.5, 0)


def test_string_parsing():
    assert scalar("1/3") == ExactScalar(Fraction(1, 3), 0)
    assert scalar("0.25") == ExactScalar(Fraction(1, 4), 0)


def test_float_value_accuracy():
    rng = random.Random(11)
    for _ in range(100):
        x = rand_scalar(rng)
        approx = Decimal(repr(float(x)))
        exact = as_decimal(x)
        assert abs(approx - exact) <= Decimal("1e-12") * (1 + abs(exact))


def test_division_by_zero_rejected():
    # the codec is the one place a denominator comes from outside
    with pytest.raises(ZeroDivisionError):
        ExactScalar.from_ints(1, 0, 0, 1)
    with pytest.raises(ZeroDivisionError):
        ExactScalar.from_ints(0, 1, 1, 0)


# -- every grade pair against the (a, b) formulas -----------------------

GRADES = ("zero", "rational", "sqrt3", "mixed")
ARITH = (operator.add, operator.sub, operator.mul)
ORDER = (operator.lt, operator.le, operator.gt, operator.ge,
         operator.eq, operator.ne)


def graded(rng, grade, integer=False):
    def q():
        num = rng.choice((-1, 1)) * rng.randint(1, 60)
        return Fraction(num) if integer else Fraction(num, rng.randint(1, 12))
    zero = Fraction(0)
    return {"zero": (zero, zero), "rational": (q(), zero),
            "sqrt3": (zero, q()), "mixed": (q(), q())}[grade]


def as_operand(pair, form):
    a, b = pair
    if form == "int":
        return int(a)
    if form == "fraction":
        return a
    return ExactScalar(a, b)


def ref_arith(op, x, y):
    (a1, b1), (a2, b2) = x, y
    if op is operator.add:
        return a1 + a2, b1 + b2
    if op is operator.sub:
        return a1 - a2, b1 - b2
    return a1 * a2 + 3 * b1 * b2, a1 * b2 + b1 * a2


def ref_sign(a, b):
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    # opposite signs; a^2 == 3 b^2 is impossible for b != 0
    return sa if a * a > 3 * b * b else sb


def graded_cases():
    rng = random.Random(31)
    for gx in GRADES:
        for gy in GRADES:
            for _ in range(12):
                for fx in ("scalar", "int", "fraction"):
                    for fy in ("scalar", "int", "fraction"):
                        if "scalar" not in (fx, fy):
                            continue
                        if (fx != "scalar" and gx in ("sqrt3", "mixed")) or (
                                fy != "scalar" and gy in ("sqrt3", "mixed")):
                            continue
                        x = graded(rng, gx, integer=fx == "int")
                        y = graded(rng, gy, integer=fy == "int")
                        yield x, y, as_operand(x, fx), as_operand(y, fy)


def test_graded_operands_match_general_formulas():
    seen = 0
    for x, y, lhs, rhs in graded_cases():
        for op in ARITH:
            want = ref_arith(op, x, y)
            got = op(lhs, rhs)
            assert isinstance(got, ExactScalar)
            assert got.to_ints() == (want[0].numerator, want[0].denominator,
                                     want[1].numerator, want[1].denominator)
        s = ref_sign(x[0] - y[0], x[1] - y[1])
        for op in ORDER:
            assert op(lhs, rhs) is op(s, 0)
        seen += 1
    # each grade pair with scalars on both sides, plus int and Fraction
    # on either side wherever the operand is rational
    assert seen == 12 * (16 + 2 * 2 * 4 * 2)


def test_package_attribute_scalar_is_the_module():
    import types

    import kakeyalab.exactgeom as exactgeom

    assert isinstance(exactgeom.scalar, types.ModuleType)
    assert exactgeom.scalar.scalar is scalar
    assert exactgeom.scalar.ExactScalar is ExactScalar
