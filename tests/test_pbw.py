import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planargca.algebra import C3, CENTRALS, Generator, H, I, J, L, bracket_basis, gen_key
from planargca.pbw import (
    MONOMIAL_ONE,
    EnvelopingElement,
    PBWMonomial,
    multiply,
    straighten,
)
from planargca.sampling import random_word
from planargca.scalars import ONE, accumulate, sc


def mono(*factors):
    return PBWMonomial(tuple(factors))


def _find_inversion(word, strategy):
    positions = range(len(word) - 1)
    if strategy == "rightmost":
        positions = reversed(positions)
    elif strategy != "leftmost":
        raise ValueError(f"unknown strategy {strategy!r}")
    for i in positions:
        if gen_key(word[i]) > gen_key(word[i + 1]):
            return i
    return None


def reference_straighten(word, strategy="leftmost"):
    """Worklist normal ordering, independent of the left action in ``pbw``:
    swap the leftmost (or rightmost) adjacent out-of-order pair ``g h`` into
    ``h g + [g, h]`` until every word is sorted."""
    out = {}
    stack = [(ONE, tuple(word))]
    while stack:
        coeff, current = stack.pop()
        pos = _find_inversion(current, strategy)
        if pos is None:
            accumulate(out, PBWMonomial.from_word(current), coeff)
            continue
        g, h = current[pos], current[pos + 1]
        swapped = current[:pos] + (h, g) + current[pos + 2:]
        stack.append((coeff, swapped))
        for gen, factor in bracket_basis(g, h).terms.items():
            shorter = current[:pos] + (gen,) + current[pos + 2:]
            stack.append((coeff * factor, shorter))
    return EnvelopingElement(out)


@st.composite
def words(draw):
    """A word of up to 9 generators, centrals included, with indices
    bounded by a drawn bound in 1..4."""
    bound = draw(st.integers(1, 4))
    indexed = st.builds(
        Generator, st.sampled_from("LHIJ"), st.integers(-bound, bound)
    )
    return draw(
        st.lists(st.one_of(indexed, st.sampled_from(CENTRALS)), max_size=9)
    )


def test_commuting_swap():
    # I and J commute, so the word I0 J1 just reorders.
    result = straighten([I(0), J(1)])
    assert result == EnvelopingElement.single(mono((J(1), 1), (I(0), 1)))


def test_single_bracket_step_ll():
    result = straighten([L(1), L(-1)])
    expected = EnvelopingElement(
        {mono((L(-1), 1), (L(1), 1)): ONE, mono((L(0), 1)): sc(-2)}
    )
    assert result == expected


def test_single_bracket_step_hh():
    result = straighten([H(1), H(-1)])
    expected = EnvelopingElement(
        {mono((H(-1), 1), (H(1), 1)): ONE, mono((C3, 1)): ONE}
    )
    assert result == expected


def test_empty_word_is_one():
    assert straighten([]) == EnvelopingElement.one()


def test_straighten_fixes_canonical_words():
    words = [
        [J(0), J(1), I(2), H(0), L(0), L(3)],
        [I(-1), I(-1), L(2)],
        [H(1)],
    ]
    for word in words:
        result = straighten(word)
        assert result == EnvelopingElement.single(PBWMonomial.from_word(word))


def test_multiply_unit():
    v = straighten([L(2), H(-1), I(0)])
    assert multiply(EnvelopingElement.one(), v) == v
    assert multiply(v, EnvelopingElement.one()) == v


def test_multiply_defining_relation():
    lhs = multiply(
        EnvelopingElement.single(mono((L(1), 1))),
        EnvelopingElement.single(mono((L(-1), 1))),
    )
    rhs = multiply(
        EnvelopingElement.single(mono((L(-1), 1))),
        EnvelopingElement.single(mono((L(1), 1))),
    )
    assert lhs - rhs == EnvelopingElement.single(mono((L(0), 1)), sc(-2))


def test_multiply_abelian_ij_block():
    product = multiply(
        EnvelopingElement.single(mono((I(0), 2))),
        EnvelopingElement.single(mono((J(0), 1))),
    )
    assert product == EnvelopingElement.single(mono((J(0), 1), (I(0), 2)))


def test_multiply_associative_sampled():
    rng = random.Random(23)
    for _ in range(12):
        u = straighten(random_word(rng, 2, 2))
        v = straighten(random_word(rng, 2, 2))
        w = straighten(random_word(rng, 2, 2))
        assert multiply(u, multiply(v, w)) == multiply(multiply(u, v), w)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(words(), st.data())
def test_engine_matches_worklist_reference(word, data):
    # Both association orders of the engine against both inversion orders
    # of the worklist; a product of two straightened halves is the whole
    # word straightened.
    expected = reference_straighten(word, "leftmost")
    assert reference_straighten(word, "rightmost") == expected
    for strategy in ("leftmost", "rightmost"):
        assert straighten(word, strategy) == expected
    cut = data.draw(st.integers(0, len(word)))
    a, b = word[:cut], word[cut:]
    assert multiply(straighten(a), straighten(b)) == expected


def test_straighten_past_the_recursion_limit():
    # [H_1, H_-1] = c3 is central, so H_1 H_-1^k = H_-1^k H_1 + k H_-1^(k-1) c3.
    # At k = 600 the word is deeper than Python's default recursion limit.
    def closed_form(k):
        return EnvelopingElement(
            {
                mono((H(-1), k), (H(1), 1)): ONE,
                mono((H(-1), k - 1), (C3, 1)): sc(k),
            }
        )

    assert straighten([H(1)] + [H(-1)] * 600) == closed_form(600)
    assert straighten([H(1)] + [H(-1)] * 60, "rightmost") == closed_form(60)


@pytest.mark.parametrize("word", [[], [L(0)]])
def test_straighten_refuses_an_unknown_strategy(word):
    with pytest.raises(ValueError, match="'middle'"):
        straighten(word, "middle")


def test_confluence_leftmost_vs_rightmost():
    rng = random.Random(47)
    for _ in range(60):
        word = random_word(rng, 5, 3)
        assert straighten(word, "leftmost") == straighten(word, "rightmost")


def test_filtration_bounds():
    rng = random.Random(91)
    for _ in range(40):
        word = random_word(rng, 5, 3)
        result = straighten(word)
        assert all(m.length() <= len(word) for m in result.terms)
        # The full-length component is the sorted word with coefficient 1:
        # swaps preserve the multiset and brackets strictly shorten.
        sorted_word = tuple(sorted(word, key=gen_key))
        top = PBWMonomial.from_word(sorted_word)
        assert result.terms.get(top, sc(0)) == ONE or not word


def test_monomial_validation():
    with pytest.raises(ValueError):
        PBWMonomial(((L(0), 0),))
    with pytest.raises(ValueError):
        PBWMonomial(((L(1), 1), (L(0), 1)))
    with pytest.raises(ValueError):
        PBWMonomial(((L(1), 1), (L(1), 1)))


def test_monomial_string_round_trip():
    m = mono((J(-1), 2), (H(0), 1), (L(2), 3))
    assert str(m) == "J[-1]^2 H[0] L[2]^3"
    assert PBWMonomial.parse(str(m)) == m
    assert str(MONOMIAL_ONE) == "1"
    assert PBWMonomial.parse("1") == MONOMIAL_ONE
