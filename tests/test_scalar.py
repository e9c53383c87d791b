import math
import operator
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arrlab.scalar
from arrlab.arrangement import (
    CentralArrangement,
    LineArrangement,
    ParseError,
    builtin,
    cone,
    decone,
    intersection_points,
    parse_arrangement,
)
from arrlab.scalar import (
    GOLDEN,
    GoldenScalar,
    PHI,
    RATIONAL,
    SQRT5,
    ScalarError,
    coerce_scalar,
    format_scalar,
    parse_scalar,
)

from oracles import compare, golden_conjugate, sign

fractions_st = st.fractions(min_value=-50, max_value=50,
                            max_denominator=20)
golden_st = st.builds(GoldenScalar, fractions_st, fractions_st)


def test_sqrt5_squares_to_five():
    assert SQRT5 * SQRT5 == GoldenScalar(5, 0)
    assert SQRT5 * SQRT5 == 5


def test_phi_identity():
    assert PHI * PHI == PHI + 1


def test_fraction_lowest_terms():
    x = Fraction(2, 4)
    assert x.numerator == 1 and x.denominator == 2


def test_one_less_than_sqrt5():
    assert compare(GoldenScalar(1, 0), SQRT5) == -1


def test_nine_quarters_greater_than_sqrt5():
    # (9/4)^2 = 81/16 > 5
    assert compare(GoldenScalar(Fraction(9, 4), 0), SQRT5) == 1


def test_compare_reflexive():
    x = GoldenScalar(Fraction(-3, 7), Fraction(2, 5))
    assert compare(x, x) == 0


def test_golden_inverse_and_division():
    x = GoldenScalar(Fraction(3, 2), Fraction(-1, 3))
    assert x * (1 / x) == 1
    assert (x / x) == 1
    with pytest.raises(ZeroDivisionError):
        1 / GoldenScalar(0, 0)
    with pytest.raises(ZeroDivisionError):
        PHI / GoldenScalar(0)


def test_golden_conjugate_norm():
    assert golden_conjugate(PHI) == GoldenScalar(Fraction(1, 2),
                                                 Fraction(-1, 2))
    # the norm a^2 - 5 b^2 of phi: phi * (1 - phi) = -1
    assert PHI * golden_conjugate(PHI) == -1


def test_hash_agrees_with_fraction_when_rational():
    assert hash(GoldenScalar(Fraction(7, 3), 0)) == hash(Fraction(7, 3))
    assert GoldenScalar(Fraction(7, 3), 0) == Fraction(7, 3)
    assert GoldenScalar(2, 0) == 2


HASH_P = sys.hash_info.modulus
# integers around the hash modulus P and its multiples, where the
# reduction mod P and the inverse of the denominator mod P turn over
near_p_st = st.sampled_from([1, 2, HASH_P - 1, HASH_P, HASH_P + 1,
                             2 * HASH_P, HASH_P * HASH_P]).flatmap(
    lambda base: st.integers(base - 2, base + 2).filter(lambda n: n > 0))


@given(st.one_of(st.integers(-10**30, 10**30), near_p_st,
                 near_p_st.map(operator.neg)),
       st.one_of(st.just(1), st.integers(1, 10**30), near_p_st))
@settings(deadline=None)
def test_rational_hash_matches_fraction(p, d):
    x = Fraction(p, d)
    assert hash(GoldenScalar(x)) == hash(x)


def test_rational_hash_builds_no_fraction(monkeypatch):
    # signed values, d = 1, -1 (whose hash is -2), and values whose
    # numerator or denominator is a multiple of P or next to one
    values = [Fraction(p, d) for p in (0, 1, -1, 7, -7, HASH_P - 1, HASH_P,
                                       -HASH_P, HASH_P + 1, -2 * HASH_P - 1)
              for d in (1, 3, HASH_P - 1, HASH_P, HASH_P + 1, 3 * HASH_P)]
    scalars = [GoldenScalar(x) for x in values]
    expected = [hash(x) for x in values]
    assert -2 in expected and sys.hash_info.inf in expected

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")
    monkeypatch.setattr(arrlab.scalar, "Fraction", no_fraction)
    assert [hash(x) for x in scalars] == expected


def test_no_float_mixing():
    with pytest.raises(TypeError):
        PHI + 0.5
    # exactness: no arithmetic or order operator takes a float, either side
    for op in (operator.add, operator.sub, operator.mul, operator.truediv,
               operator.pow, operator.lt, operator.le, operator.gt,
               operator.ge):
        for x, y in ((PHI, 0.5), (0.5, PHI)):
            names = f"'{type(x).__name__}' and '{type(y).__name__}'"
            with pytest.raises(TypeError, match=names):
                op(x, y)
    assert PHI.__eq__(0.5) is NotImplemented


@given(fractions_st, fractions_st, fractions_st)
def test_golden_operators_match_fraction_pairs(a, b, c):
    x = GoldenScalar(a, b)
    assert +x == x
    assert c - x == GoldenScalar(c - a, -b)
    assert bool(x) == (a != 0 or b != 0)
    assert abs(x) in (x, GoldenScalar(-a, -b))
    assert abs(x) >= 0 and abs(x) >= x and abs(x) >= -x
    assert (x >= c) == (not x < c)
    if x:
        # 1 / (a + b sqrt5) = (a - b sqrt5) / (a^2 - 5 b^2)
        n = a * a - 5 * b * b
        assert c / x == GoldenScalar(c * a / n, -c * b / n)
        y = GoldenScalar(a / n, -b / n)
        assert 1 / x == y
        assert 1 / (x * x * x) == y * y * y


@given(golden_st, golden_st)
def test_golden_abs_and_ge(x, y):
    assert abs(x * y) == abs(x) * abs(y)
    assert (x >= y) == (y <= x) == (x > y or x == y)


@given(golden_st)
def test_golden_str_and_repr_round_trip(x):
    assert parse_scalar(str(x), GOLDEN) == x
    assert eval(repr(x), {"GoldenScalar": GoldenScalar,
                          "Fraction": Fraction}) == x


def test_golden_str_and_repr():
    assert str(PHI) == "1/2~1/2"
    assert str(GoldenScalar(-3, 0)) == "-3"
    assert repr(SQRT5) == "GoldenScalar(Fraction(0, 1), Fraction(1, 1))"


def assert_rational_scalar(x, value):
    """x is the GoldenScalar of the rational value: b == 0, equal to the
    Fraction and with its hash."""
    assert type(x) is GoldenScalar and x.b == 0
    assert x == Fraction(value) and Fraction(value) == x
    assert hash(x) == hash(Fraction(value))


def test_coerce_scalar():
    for value in (Fraction(1, 2), Fraction(-7, 3), -3, 0):
        for field in (RATIONAL, GOLDEN):
            assert_rational_scalar(coerce_scalar(value, field), value)
    half = coerce_scalar(GoldenScalar(Fraction(1, 2), 0), RATIONAL)
    assert_rational_scalar(half, Fraction(1, 2))
    assert coerce_scalar(PHI, GOLDEN) is PHI
    with pytest.raises(ScalarError, match="irrational value"):
        coerce_scalar(PHI, RATIONAL)
    with pytest.raises(ScalarError, match="unknown field 'complex'"):
        coerce_scalar(1, "complex")
    with pytest.raises(ScalarError, match="unknown field 'complex'"):
        parse_scalar("1", "complex")


def test_rational_arrangements_hold_rational_scalars():
    text = ("field rational\nline 2 -4 6\nline 0 3/7 -1/2\n"
            "line -5/3 1 0\n")
    arr = parse_arrangement(text)
    assert [ln.coeffs() for ln in arr.lines] == [
        (1, -2, 3), (0, 1, Fraction(-7, 6)), (1, Fraction(-3, 5), 0)]
    central = parse_arrangement(text.replace("line", "plane"))
    # every parsed coefficient, and every scalar derived from them, is a
    # rational GoldenScalar
    derived = [arr, central, cone(arr), decone(central, 1),
               builtin("generic3"), builtin("B3")]
    for a in derived:
        assert a.field == RATIONAL
        rows = ([ln.coeffs() for ln in a.lines] + list(intersection_points(a))
                if isinstance(a, LineArrangement)
                else [pl.normal() for pl in a.planes])
        for coeffs in rows:
            for x in coeffs:
                assert_rational_scalar(x, x.a)
    # an irrational value in a rational arrangement
    with pytest.raises(ScalarError, match="irrational value"):
        LineArrangement(((PHI, 1, 0),), RATIONAL)
    with pytest.raises(ScalarError, match="irrational value"):
        CentralArrangement(((1, 0, SQRT5),), RATIONAL)
    with pytest.raises(ParseError, match="line 2: golden literal") as info:
        parse_arrangement("field rational\nline 1 1~1 0\n")
    assert isinstance(info.value.__cause__, ScalarError)


@given(golden_st, golden_st)
def test_trichotomy(x, y):
    lt = x < y
    gt = x > y
    eq = x == y
    assert lt + gt + eq == 1
    assert (compare(x, y) == -1) == lt
    assert (compare(y, x) == 1) == lt


@given(golden_st, golden_st, golden_st)
@settings(deadline=None)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if x != 0:
        assert x * (1 / x) == 1


@given(golden_st)
def test_sign_consistent_with_order(x):
    assert sign(x) == compare(x, GoldenScalar(0))


def test_float_sanity_oracle():
    """compare() agrees with 120-bit floating evaluation on 10^4 random
    pairs; floating point is never used anywhere else."""
    rng = random.Random(20250809)
    with mpmath.workprec(120):
        s5 = mpmath.sqrt(5)
        for _ in range(10_000):
            a = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            b = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            c = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            d = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            x = GoldenScalar(a, b)
            y = GoldenScalar(c, d)
            fx = mpmath.mpf(a.numerator) / a.denominator + \
                mpmath.mpf(b.numerator) / b.denominator * s5
            fy = mpmath.mpf(c.numerator) / c.denominator + \
                mpmath.mpf(d.numerator) / d.denominator * s5
            expected = 0 if (a, b) == (c, d) else (1 if fx > fy else -1)
            assert compare(x, y) == expected


@pytest.mark.parametrize("token,field,value", [
    ("3/5", RATIONAL, Fraction(3, 5)),
    ("-2", RATIONAL, Fraction(-2)),
    ("1/2~1/2", GOLDEN, PHI),
    ("0~1", GOLDEN, SQRT5),
    ("7", GOLDEN, GoldenScalar(7, 0)),
    ("-1/2~1/2", GOLDEN, PHI - 1),
])
def test_parse_scalar(token, field, value):
    assert parse_scalar(token, field) == value


@pytest.mark.parametrize("token,field", [
    ("1/0", RATIONAL),
    ("1~2", RATIONAL),
    ("a", GOLDEN),
    ("1 /2", RATIONAL),
    ("1/2~", GOLDEN),
    ("--3", RATIONAL),
])
def test_parse_scalar_rejects(token, field):
    with pytest.raises(ScalarError):
        parse_scalar(token, field)


@given(golden_st)
def test_format_parse_round_trip(x):
    assert parse_scalar(format_scalar(x), GOLDEN) == x


@given(fractions_st)
def test_format_parse_round_trip_rational(x):
    assert parse_scalar(format_scalar(coerce_scalar(x, RATIONAL)),
                        RATIONAL) == x


# -- the (p, q, d) representation --------------------------------------

def assert_canonical(x):
    """(p + q sqrt5)/d with d > 0 and gcd(p, q, d) = 1, over ints."""
    assert type(x) is GoldenScalar
    p, q, d = x._p, x._q, x._d
    assert type(p) is type(q) is type(d) is int
    assert d > 0 and math.gcd(p, q, d) == 1


operands_st = st.one_of(golden_st, fractions_st,
                        st.integers(min_value=-50, max_value=50))


@given(golden_st, operands_st)
def test_every_operation_leaves_canonical_triples(x, y):
    assert_canonical(x)
    results = [x + y, y + x, x - y, y - x, x * y, y * x, -x, +x, abs(x),
               x * x, x - x]
    if x:
        results += [1 / x, y / x, 1 / (x * x)]
    if y:
        results.append(x / y)
    for r in results:
        assert_canonical(r)


def test_equal_values_by_different_paths_are_equal_and_hash_equal():
    half = SQRT5 * SQRT5 / 10
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert hash(half) == hash(Fraction(1, 2))
    assert (half._p, half._q, half._d) == (1, 0, 2)
    one = PHI * PHI - PHI
    assert one == 1 and hash(one) == hash(1) == hash(Fraction(1))
    # phi = (1 + sqrt5)/2 reached three ways
    ways = [PHI, (SQRT5 + 1) / 2, GoldenScalar(Fraction(3, 6), Fraction(2, 4)),
            1 / (PHI - 1), (PHI * 6 - 3) / 6 + Fraction(1, 2)]
    assert len(set(ways)) == 1
    assert {(w._p, w._q, w._d) for w in ways} == {(1, 1, 2)}
    assert len({hash(w) for w in ways}) == 1


@given(golden_st)
def test_parts_round_trip(x):
    assert type(x.a) is Fraction and type(x.b) is Fraction
    y = GoldenScalar(x.a, x.b)
    assert y == x and hash(y) == hash(x)
    assert (y._p, y._q, y._d) == (x._p, x._q, x._d)
    assert x.a + x.b * SQRT5 == x


def test_parts_are_read_only():
    for name in ("a", "b"):
        with pytest.raises(AttributeError):
            setattr(PHI, name, Fraction(1))
    assert PHI.a == PHI.b == Fraction(1, 2)


def test_irrational_hash_builds_no_fraction(monkeypatch):
    expected = {x: hash(x) for x in (PHI, SQRT5, PHI / 7)}

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")
    monkeypatch.setattr(arrlab.scalar, "Fraction", no_fraction)
    assert {x: hash(x) for x in expected} == expected
