"""Property tests for the shared sparse linear-combination base.

``Element``, ``EnvelopingElement``, ``ModuleVector``, ``Poly`` and
``TensorVector`` all take their vector-space operations from
``scalars.LinearCombination``; each law below is checked on all five.
"""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planargca.algebra import CENTRALS, Element, Generator, gen_key
from planargca.pbw import EnvelopingElement, PBWMonomial
from planargca.poly import Poly
from planargca.scalars import LinearCombination, Scalar
from planargca.tensor import TensorVector
from planargca.whittaker import ModuleVector

GENERATORS = [
    Generator(family, index) for family in "LHIJ" for index in range(-2, 3)
] + list(CENTRALS)

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
scalars = st.one_of(
    st.just(Scalar(0)),
    st.builds(Scalar, small_fractions),
    st.builds(Scalar, small_fractions, small_fractions),
)
monomials = st.lists(
    st.sampled_from(GENERATORS[:10] + [CENTRALS[0]]), max_size=3
).map(lambda word: PBWMonomial.from_word(sorted(word, key=gen_key)))
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))

KEYS = {
    Element: st.sampled_from(GENERATORS),
    EnvelopingElement: monomials,
    ModuleVector: monomials,
    Poly: exponents,
    TensorVector: st.tuples(exponents, monomials),
}
KINDS = list(KEYS)
HASHABLE = {Poly}


def vectors(kind):
    return st.dictionaries(KEYS[kind], scalars, max_size=5).map(kind)


def assert_clean(vector, kind):
    assert type(vector) is kind
    assert all(vector.terms.values()), "a zero coefficient was stored"


def test_all_four_share_the_base():
    for kind in KINDS:
        assert issubclass(kind, LinearCombination)
        assert kind.__slots__ == ()
        for attr in ("__add__", "__sub__", "__neg__", "scale", "__bool__",
                     "__eq__", "zero", "single", "combine"):
            assert attr not in vars(kind), f"{kind.__name__} redefines {attr}"


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_vector_space_laws(kind, data):
    a, b, c = (data.draw(vectors(kind)) for _ in range(3))
    coeff = data.draw(scalars)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a - b) + b == a
    assert a - a == kind.zero()
    assert -a == a.scale(Scalar(-1))
    assert (a + b).scale(coeff) == a.scale(coeff) + b.scale(coeff)
    assert bool(a) == bool(a.terms)
    for result in (a + b, a - b, -a, a.scale(coeff), a - a):
        assert_clean(result, kind)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_no_zero_coefficient_is_stored(kind, data):
    raw = data.draw(st.dictionaries(KEYS[kind], scalars, max_size=6))
    vector = kind(raw)
    assert_clean(vector, kind)
    assert vector.terms == {key: c for key, c in raw.items() if c}
    key = data.draw(KEYS[kind])
    assert_clean(kind.single(key, Scalar(0)), kind)
    assert not kind.single(key, Scalar(0))
    assert not kind.zero()


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_combine_equals_pairwise_sum(kind, data):
    pairs = data.draw(st.lists(st.tuples(scalars, vectors(kind)), max_size=5))
    combined = kind.combine(pairs)
    pairwise = reduce(
        lambda total, pair: total + pair[1].scale(pair[0]), pairs, kind.zero()
    )
    assert_clean(combined, kind)
    assert combined == pairwise
    # Same key order too, so anything iterating the terms sees no change.
    assert list(combined.terms) == list(pairwise.terms)


def test_different_kinds_never_compare_equal():
    assert Element() != ModuleVector()
    assert not Element() == ModuleVector()
    mono = PBWMonomial.from_word([GENERATORS[0]])
    assert EnvelopingElement.single(mono) != ModuleVector.single(mono)
    for left in KINDS:
        for right in KINDS:
            assert (left() == right()) == (left is right)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_hashability_unchanged(kind, data):
    vector = data.draw(vectors(kind))
    if kind in HASHABLE:
        assert hash(vector) == hash(kind(dict(reversed(vector.terms.items()))))
    else:
        with pytest.raises(TypeError):
            hash(vector)

