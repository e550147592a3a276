import random
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
