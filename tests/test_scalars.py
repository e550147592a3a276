import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planargca.scalars import (
    IMAG,
    ONE,
    ZERO,
    Scalar,
    ZeroToNegativePower,
    parse_scalar,
    sc,
    scalar_pow,
)


def test_pow_field_inverse():
    assert scalar_pow(sc(2), -1) == sc(Fraction(1, 2))


def test_pow_complex_square():
    # (1+i)^2 = 2i by direct complex multiplication.
    assert scalar_pow(sc(1, 1), 2) == sc(0, 2)
    assert sc(1, 1) * sc(1, 1) == sc(0, 2)


def test_pow_empty_product():
    assert scalar_pow(sc(5), 0) == ONE
    assert scalar_pow(ZERO, 0) == ONE


def test_zero_to_negative_power_rejected():
    with pytest.raises(ZeroToNegativePower):
        scalar_pow(ZERO, -2)


def test_field_axioms_sampled():
    rng = random.Random(101)
    values = []
    for _ in range(40):
        values.append(
            sc(
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
            )
        )
    for a, b, c in zip(values, values[1:], values[2:]):
        assert (a * b) * c == a * (b * c)
        assert (a + b) * c == a * c + b * c
        if a:
            assert a * a.inverse() == ONE


def test_division_and_conjugate():
    a = sc(3, 4)
    assert a / a == ONE
    assert a * a.conjugate() == sc(25)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


@pytest.mark.parametrize(
    "value,text",
    [
        (ZERO, "0"),
        (sc(3), "3"),
        (sc(Fraction(-1, 2)), "-1/2"),
        (sc(0, 2), "2*i"),
        (sc(Fraction(1, 2), Fraction(-3, 4)), "1/2-3/4*i"),
        (sc(Fraction(1, 2), 3), "1/2+3*i"),
    ],
)
def test_string_round_trip(value, text):
    assert str(value) == text
    assert parse_scalar(text) == value


def test_parse_accepts_bare_i():
    assert parse_scalar("i") == IMAG
    assert parse_scalar("-i") == -IMAG
    assert parse_scalar("2i") == sc(0, 2)


@pytest.mark.parametrize("bad", ["", "1/0", "2+", "i+i", "1..2", "x"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_lowest_terms_and_positive_denominator():
    value = sc(Fraction(2, -4))
    assert value.re == Fraction(-1, 2)
    assert str(value) == "-1/2"


def test_fast_fraction_paths_match_stock_operators():
    # The arithmetic kernel builds fractions without renormalizing; every
    # result must agree with the stock operators and stay in lowest terms
    # with a positive denominator.
    import math

    rng = random.Random(71)
    for _ in range(300):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
        sa, sb = sc(a), sc(b)
        assert (sa + sb).re == a + b
        assert (sa - sb).re == a - b
        assert (sa * sb).re == a * b
        for out in ((sa + sb).re, (sa - sb).re, (sa * sb).re):
            assert out.denominator > 0
            assert math.gcd(out.numerator, out.denominator) == 1
    # The complex branch exercises all four cross terms.
    left = sc(Fraction(1, 2), Fraction(-2, 3))
    right = sc(Fraction(3, 4), Fraction(5, 6))
    product = left * right
    assert product.re == Fraction(1, 2) * Fraction(3, 4) + Fraction(2, 3) * Fraction(5, 6)
    assert product.im == Fraction(1, 2) * Fraction(5, 6) - Fraction(2, 3) * Fraction(3, 4)


# -- eq/hash consistency and the string round trip (hypothesis) ---------------

_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_gaussian = st.builds(Scalar, _fractions, _fractions)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.one_of(st.integers(-20, 20).map(Fraction), _fractions),
    st.one_of(st.just(Fraction(0)), _fractions),
)
def test_equal_values_hash_equally(re_part, im_part):
    # One value in every form it can take: Scalar built directly or by
    # arithmetic, and for real values the Fraction and, if whole, the int.
    forms = [Scalar(re_part, im_part), Scalar(re_part) + Scalar(0, im_part)]
    if not im_part:
        forms += [re_part, Scalar(re_part)]
        if re_part.denominator == 1:
            forms += [int(re_part), Scalar(int(re_part))]
    for x in forms:
        for y in forms:
            assert x == y
            assert hash(x) == hash(y)
    assert len(set(forms)) == 1


def test_scalar_one_and_int_one_collapse_in_a_set():
    assert len({Scalar(1), 1, Fraction(1)}) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_gaussian)
def test_parse_inverts_str(x):
    assert parse_scalar(str(x)) == x


# -- the integer-triple kernel against textbook Fraction formulas ---------------

_parts = st.fractions(min_value=-200, max_value=200, max_denominator=60)
_mixed = st.one_of(
    st.builds(lambda re, im: (re, im), _parts, _parts),
    _parts.map(lambda re: (re, Fraction(0))),
    _parts.map(lambda im: (Fraction(0), im)),
)


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def ref_pow(x, exponent):
    if exponent < 0:
        x, exponent = ref_inverse(x), -exponent
    out = (Fraction(1), Fraction(0))
    for _ in range(exponent):
        out = ref_mul(out, x)
    return out


def assert_matches(value, pair):
    assert isinstance(value, Scalar)
    assert (value.re, value.im) == pair
    assert value.d > 0
    assert math.gcd(value.a, value.b, value.d) == 1


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_mixed, _mixed, st.integers(-4, 4))
def test_kernel_matches_fraction_pairs(x, y, exponent):
    sx, sy = Scalar(*x), Scalar(*y)
    assert_matches(sx, x)
    assert_matches(sx + sy, (x[0] + y[0], x[1] + y[1]))
    assert_matches(sx - sy, (x[0] - y[0], x[1] - y[1]))
    assert_matches(-sx, (-x[0], -x[1]))
    assert_matches(sx * sy, ref_mul(x, y))
    assert_matches(sx.conjugate(), (x[0], -x[1]))
    if any(y):
        assert_matches(sy.inverse(), ref_inverse(y))
        assert_matches(sx / sy, ref_mul(x, ref_inverse(y)))
    if any(x) or exponent >= 0:
        assert_matches(scalar_pow(sx, exponent), ref_pow(x, exponent))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mixed, _mixed)
def test_equal_values_by_different_routes_agree(x, y):
    direct = Scalar(*x)
    sy = Scalar(*y)
    routes = [
        direct,
        (direct + sy) - sy,
        sy + direct - sy,
        -(-direct),
        direct.conjugate().conjugate(),
        Scalar(x[0]) + Scalar(0, x[1]),
        Scalar(x[0]) + Scalar(x[1]) * IMAG,
        parse_scalar(str(direct)),
    ]
    if any(y):
        routes += [direct * sy / sy, (direct / sy) * sy]
    for route in routes:
        assert route == direct
        assert (route.a, route.b, route.d) == (direct.a, direct.b, direct.d)
        assert str(route) == str(direct)
        assert hash(route) == hash(direct)


@pytest.mark.parametrize(
    "parts",
    [(0.1,), ("1/3",), (1, 0.5), (1, "2"), (Decimal(1),), (1.0,), (None,), (ONE,)],
)
def test_constructor_refuses_non_rational_parts(parts):
    with pytest.raises(TypeError):
        Scalar(*parts)
    with pytest.raises(TypeError):
        sc(*parts)


@pytest.mark.parametrize("other", [0.5, "1", Decimal(2)])
def test_arithmetic_refuses_floats_and_strings(other):
    for operation in (
        lambda: ONE + other,
        lambda: other + ONE,
        lambda: ONE - other,
        lambda: ONE * other,
        lambda: ONE / other,
    ):
        with pytest.raises(TypeError):
            operation()


def test_parts_are_read_only():
    value = sc(Fraction(1, 2), 3)
    with pytest.raises(AttributeError):
        value.re = Fraction(1)
    with pytest.raises(AttributeError):
        value.im = Fraction(1)
    assert (value.re, value.im) == (Fraction(1, 2), Fraction(3))
