import copy
import gc
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planargca import pbw, whittaker
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


@pytest.mark.parametrize("exp", [1.5, 2.0, True, "2", 0, -1])
def test_monomial_refuses_an_exponent_that_is_no_positive_int(exp):
    size = len(pbw._MONOMIALS)
    with pytest.raises(ValueError, match=f"exponents must be positive ints, not {exp!r}"):
        PBWMonomial(((L(1), exp),))
    assert len(pbw._MONOMIALS) == size


@st.composite
def canonical_factors(draw):
    """A canonical factor tuple of up to five generators, centrals included."""
    indexed = st.builds(Generator, st.sampled_from("LHIJ"), st.integers(-4, 4))
    gens = draw(st.lists(indexed | st.sampled_from(CENTRALS), unique=True, max_size=5))
    gens.sort(key=gen_key)
    return tuple((g, draw(st.integers(1, 4))) for g in gens)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(canonical_factors())
def test_monomials_are_interned(factors):
    m = PBWMonomial(factors)
    assert PBWMonomial(list(factors)) is m
    assert PBWMonomial.parse(str(m)) is m
    assert copy.copy(m) is m
    assert copy.deepcopy(m) is m
    assert pickle.loads(pickle.dumps(m)) is m
    assert pbw._MONOMIALS[factors]() is m
    assert PBWMonomial.__eq__ is object.__eq__
    assert PBWMonomial.__hash__ is object.__hash__


@settings(max_examples=100, deadline=None, derandomize=True)
@given(canonical_factors().filter(bool), st.data())
def test_a_refused_monomial_leaves_no_table_entry(factors, data):
    # A bad exponent (2.0 and True hash like a valid one), two factors out
    # of order, or a repeated factor.
    factors = list(factors)
    at = data.draw(st.integers(0, len(factors) - 1))
    fault = data.draw(st.sampled_from(["exponent", "order", "repeat"]))
    if fault == "exponent":
        g, exp = factors[at]
        bad = [exp + 0.5, float(exp), True, str(exp), 0, -exp]
        factors[at] = (g, data.draw(st.sampled_from(bad)))
    elif fault == "order" and len(factors) > 1:
        factors[at], factors[at - 1] = factors[at - 1], factors[at]
    else:
        factors.insert(at, factors[at])
    size = len(pbw._MONOMIALS)
    with pytest.raises(ValueError):
        PBWMonomial(factors)
    assert len(pbw._MONOMIALS) == size


@pytest.mark.parametrize(
    "values,m,n", [({"I[3]": "1", "J[3]": "1"}, 3, 1), ({"I[2]": "1", "J[2]": "1"}, 1, 2)]
)
def test_the_monomial_table_holds_only_live_monomials(values, m, n):
    # The table must not outlive a memo: once the search's report and a
    # straightened word are dropped, only the monomials alive before remain.
    # The second datum has a witness.
    datum = whittaker.validate_whittaker(values, m, n)
    word = [L(2), H(-1), J(0), L(-2), I(1), H(1), C3]
    gc.collect()
    size = len(pbw._MONOMIALS)
    report = whittaker.singular_vector_search(datum, 5)
    assert report.basis_size == 415
    assert (len(pbw._MONOMIALS) > size) == report.found
    del report
    assert len(pbw._MONOMIALS) == size
    for strategy in ("leftmost", "rightmost"):
        straighten(word, strategy)
        assert len(pbw._MONOMIALS) == size


def test_monomial_string_round_trip():
    m = mono((J(-1), 2), (H(0), 1), (L(2), 3))
    assert str(m) == "J[-1]^2 H[0] L[2]^3"
    assert PBWMonomial.parse(str(m)) == m
    assert str(MONOMIAL_ONE) == "1"
    assert PBWMonomial.parse("1") == MONOMIAL_ONE


class RecordedAction(pbw._LeftAction):
    """The left action, remembering every instance so a test can read its
    memo after the call that made it returns."""

    __slots__ = ()
    made = []

    def __init__(self, datum):
        super().__init__(datum)
        RecordedAction.made.append(self)


def assert_memo_is_canonical(action):
    """Every memo key and image monomial passes the public, checking
    constructor: the unchecked ones the action builds are canonical."""
    for table in action.memo.values():
        for key, image in table.items():
            assert PBWMonomial(key.factors) == key
            for term, _ in image:
                assert PBWMonomial(term.factors) == term


@settings(max_examples=150, deadline=None, derandomize=True)
@given(words())
def test_straighten_builds_canonical_monomials(word):
    RecordedAction.made.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pbw, "_LeftAction", RecordedAction)
        for strategy in ("leftmost", "rightmost"):
            straighten(word, strategy)
    assert len(RecordedAction.made) == 2
    for action in RecordedAction.made:
        assert_memo_is_canonical(action)


_REAL_VALUES = [sc(0), sc(1), sc(-2), sc(Fraction(1, 3))]
_COMPLEX_VALUES = _REAL_VALUES + [sc(2, 1), sc(0, -1), sc(3, Fraction(-1, 2))]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_search_builds_canonical_monomials(data):
    # Real or complex values; the top pair vanishes in some draws, so some
    # searches find a witness and re-verify it with a second action.
    m, n = data.draw(st.sampled_from([(1, 1), (2, 2), (3, 1)]))
    value = st.sampled_from(data.draw(st.sampled_from([_REAL_VALUES, _COMPLEX_VALUES])))
    values = {
        str(g): data.draw(value)
        for g in whittaker.WhittakerDatum(m, n, {}).support() + list(CENTRALS)
    }
    datum = whittaker.validate_whittaker(values, m, n)
    RecordedAction.made.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(whittaker, "_LeftAction", RecordedAction)
        whittaker.singular_vector_search(datum, data.draw(st.integers(1, 4)))
    assert RecordedAction.made
    for action in RecordedAction.made:
        assert_memo_is_canonical(action)
