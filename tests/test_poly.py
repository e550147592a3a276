import random
from fractions import Fraction

import pytest

from planargca.poly import P_ONE, P_ZERO, Poly, X, Y
from planargca.scalars import ONE, sc


def test_shift_linear_substitution():
    assert Y.shift(sc(0), sc(-1)) == Y - P_ONE


def test_shift_binomial_expansion():
    # Independent oracle: multiply (X-1)(X-1) directly.
    shifted = (X * X).shift(sc(-1), sc(0))
    oracle = (X - P_ONE) * (X - P_ONE)
    assert shifted == oracle
    assert shifted == Poly({(2, 0): ONE, (1, 0): sc(-2), (0, 0): ONE})


def test_shift_fixes_constants():
    assert P_ONE.shift(sc(7), sc(-3)) == P_ONE


def test_shift_round_trip_sampled():
    rng = random.Random(33)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            terms[(rng.randint(0, 4), rng.randint(0, 4))] = sc(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            )
        p = Poly(terms)
        dx = sc(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        dy = sc(rng.randint(-3, 3))
        assert p.shift(dx, dy).shift(-dx, -dy) == p


def test_ring_operations():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert p - p == P_ZERO
    assert not P_ZERO
    assert (X * Y).scale(sc(0)) == P_ZERO


def test_degrees():
    p = X * X * Y + Y
    assert p.total_degree() == 3
    assert p.x_degree() == 2
    assert p.y_degree() == 1
    assert P_ZERO.total_degree() == -1
    assert X.is_univariate_in_x()
    assert not (X * Y).is_univariate_in_x()


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        Poly({(-1, 0): ONE})


def test_json_round_trip():
    p = X * X - Y.scale(sc(Fraction(1, 2))) + P_ONE.scale(sc(0, 1))
    records = p.to_json()
    assert records == sorted(records, key=lambda r: (r["xexp"], r["yexp"]))
    assert Poly.from_json(records) == p


@pytest.mark.parametrize(
    "record",
    [
        {"xexp": 1, "yexp": 0, "coeff": "1", "junk": 5},
        {"xexp": 1, "yexp": 0, "coeff": "1", "Coeff": "2"},
    ],
)
def test_json_rejects_unknown_record_keys(record):
    with pytest.raises(ValueError, match="unknown keys"):
        Poly.from_json([record])


@pytest.mark.parametrize(
    "records",
    [
        [{"xexp": 1, "yexp": 0, "coeff": "1"}, {"xexp": 1, "yexp": 0, "coeff": "2"}],
        [{"xexp": 1, "yexp": 0, "coeff": "1"}, {"xexp": 1, "yexp": 0, "coeff": "-1"}],
        [{"xexp": 0, "yexp": 2, "coeff": "0"}, {"yexp": 2, "xexp": 0, "coeff": "3"}],
    ],
)
def test_json_rejects_a_monomial_given_twice(records):
    # Summing the records would read 3X, or 0 for X with -X.
    with pytest.raises(ValueError, match="duplicate record for xexp"):
        Poly.from_json(records)
