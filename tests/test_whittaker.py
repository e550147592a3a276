import gc
import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planargca.algebra import (
    C1,
    C2,
    CENTRALS,
    Generator,
    H,
    I,
    J,
    L,
    bracket_basis,
    gen_key,
    gen_str,
)
from planargca import linalg, whittaker
from planargca.linalg import SparseEchelon
from planargca.pbw import PBWMonomial
from planargca.sampling import random_block_vector
from planargca.scalars import ONE, ZERO, Scalar, accumulate, sc
from planargca.whittaker import (
    DerivedAlgebraViolation,
    LengthMismatch,
    ModuleVector,
    OutOfSubalgebra,
    PreconditionViolated,
    UnsupportedMonomial,
    ZeroVector,
    annihilation_bound,
    block_length,
    check_degree_reduction,
    epsilon,
    example_psi14_witness,
    principal_compare,
    psi14_matrix,
    reverse_lex_compare,
    singular_vector_search,
    solve_twist,
    twist_matrices,
    validate_whittaker,
    vector_degree,
    weight,
    whittaker_act,
)


def mono(*factors):
    return PBWMonomial(tuple(factors))


def vec(*pairs):
    return ModuleVector({m: c for m, c in pairs})


# -- datum validation ---------------------------------------------------------


def test_validate_accepts_standard_datum():
    datum = validate_whittaker(
        {"I[1]": "1", "J[1]": "1", "L[1]": "0", "L[2]": "0"}, 1, 1
    )
    assert datum.psi(I(1)) == ONE
    assert datum.psi(L(2)) == ZERO


def test_validate_rejects_forced_zero_position():
    with pytest.raises(DerivedAlgebraViolation):
        validate_whittaker({"I[2]": "1"}, 1, 1)
    with pytest.raises(DerivedAlgebraViolation):
        validate_whittaker({"L[3]": "1"}, 1, 1)
    with pytest.raises(DerivedAlgebraViolation):
        validate_whittaker({"H[2]": "1"}, 1, 1)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 4])
def test_validate_accepts_exactly_the_support(m, n):
    datum = validate_whittaker({}, m, n)
    support = datum.support()
    assert len(support) == len(set(support)) == 4 * m + 1
    bound = 2 * m + n + 3
    for family in "LHIJ":
        for index in range(-1, bound + 1):
            g = Generator(family, index)
            if not datum.in_subalgebra(g):
                continue
            try:
                validate_whittaker({g: "1"}, m, n)
                accepted = True
            except DerivedAlgebraViolation:
                accepted = False
            assert accepted == (g in support), g


def test_validate_rejects_outside_subalgebra():
    with pytest.raises(OutOfSubalgebra):
        validate_whittaker({"L[0]": "1"}, 1, 1)
    with pytest.raises(OutOfSubalgebra):
        validate_whittaker({"I[0]": "1"}, 1, 1)


@pytest.mark.parametrize(
    "values",
    [
        {"I[1]": "0", " I[1]": "5", "J[1]": "1"},
        {"I[1]": "5", " I[1]": "0", "J[1]": "1"},
    ],
)
def test_validate_rejects_duplicate_with_zero_copy(values):
    with pytest.raises(ValueError, match=r"duplicate value for I\[1\]"):
        validate_whittaker(values, 1, 1)


def test_validate_accepts_central_charges():
    datum = validate_whittaker({"I[1]": "1", "J[1]": "1", "c1": "1/2"}, 1, 1)
    assert datum.psi(C1) == sc(Fraction(1, 2))


def test_validate_requires_positive_m():
    with pytest.raises(PreconditionViolated):
        validate_whittaker({}, 0, 1)


def test_datum_json_round_trip():
    datum = validate_whittaker(
        {"I[1]": "1", "J[1]": "2", "L[2]": "6", "c2": "1/3"}, 1, 1
    )
    data = datum.to_json()
    assert data["m"] == 1 and data["n"] == 1
    assert data["values"] == {"J[1]": "2", "I[1]": "1", "L[2]": "6"}
    assert data["centrals"] == {"c2": "1/3"}


def test_module_vector_json_round_trip():
    v = ModuleVector({
        PBWMonomial.parse("I[0]"): sc(2),
        PBWMonomial.parse("J[-1]^2"): sc(-1, 3),
        PBWMonomial.parse("1"): sc(0, 1),
    })
    assert ModuleVector.from_json(v.to_json()) == v


@pytest.mark.parametrize(
    "data",
    [
        {"I[1]": "1", " I[1]": "2"},
        {"I[1]": "1", "I[01]": "2"},
        {"I[1]": "0", "I[01]": "2"},
        {"1": "3", "": "1"},
    ],
)
def test_module_vector_json_rejects_two_spellings_of_one_monomial(data):
    with pytest.raises(ValueError, match="duplicate coefficient for monomial"):
        ModuleVector.from_json(data)


# -- module action -------------------------------------------------------------


def psi_11(extra=None):
    values = {"I[1]": "1", "J[1]": "1"}
    values.update(extra or {})
    return validate_whittaker(values, 1, 1)


def test_cyclic_vector_is_eigenvector():
    datum = psi_11()
    assert whittaker_act(datum, I(1), ModuleVector.cyclic()) == ModuleVector.cyclic()


def test_action_with_one_straightening_step():
    datum = psi_11()
    v = vec((mono((I(0), 1)), ONE))
    # H1 I0 w = [H1, I0] w + I0 H1 w = I1 w = w.
    assert whittaker_act(datum, H(1), v) == ModuleVector.cyclic()


def test_central_acts_as_scalar():
    datum = psi_11({"c2": "1/2"})
    v = vec((mono((L(0), 2)), sc(3)))
    assert whittaker_act(datum, C2, v) == v.scale(sc(Fraction(1, 2)))


def test_action_lands_on_free_basis():
    datum = psi_11()
    v = vec((mono((J(0), 1), (I(0), 1), (L(0), 1)), ONE))
    for g in (L(2), H(1), I(1), J(0), L(-1)):
        image = whittaker_act(datum, g, v)
        for m in image.terms:
            for gen, _ in m.factors:
                assert datum.is_free(gen)


def test_module_axiom_sampled():
    datum = validate_whittaker(
        {"I[1]": "1", "J[1]": "1", "c1": "1/2", "c2": "1", "c3": "1/3"}, 1, 1
    )
    rng = random.Random(13)
    basis = [
        ModuleVector.cyclic(),
        vec((mono((I(0), 1)), ONE)),
        vec((mono((J(0), 1), (I(0), 1)), ONE)),
        vec((mono((H(0), 1), (L(0), 1)), ONE)),
        vec((mono((L(-1), 1)), ONE), (mono((H(0), 2)), sc(2))),
    ]
    gens = [Generator(fam, idx) for fam in "LHIJ" for idx in range(-3, 4)]
    gens += [C1, C2]
    for _ in range(120):
        g1 = gens[rng.randrange(len(gens))]
        g2 = gens[rng.randrange(len(gens))]
        v = basis[rng.randrange(len(basis))]
        lhs = ModuleVector.zero()
        for g, coeff in bracket_basis(g1, g2).terms.items():
            lhs = lhs + whittaker_act(datum, g, v).scale(coeff)
        rhs = whittaker_act(datum, g1, whittaker_act(datum, g2, v)) - whittaker_act(
            datum, g2, whittaker_act(datum, g1, v)
        )
        assert lhs == rhs


def test_restricted_property_probed():
    datum = psi_11({"L[2]": "6"})
    vectors = [
        ModuleVector.cyclic(),
        vec((mono((L(-2), 1), (L(0), 1)), ONE)),
        vec((mono((J(-3), 2), (I(0), 1)), sc(5))),
    ]
    for v in vectors:
        bound = annihilation_bound(datum, v)
        for fam in "LHIJ":
            for extra in range(1, 6):
                g = Generator(fam, bound + extra)
                assert whittaker_act(datum, g, v) == ModuleVector.zero()



# -- reference action by word rewriting -----------------------------------------


def reference_act(datum, g, v):
    """Worklist normal ordering of ``g . v``, independent of the memoized
    recursion in ``whittaker_act``.

    Trailing subalgebra or central factors evaluate to their psi-value; a
    subalgebra factor stuck left of free ones is swapped rightward, spawning
    one shorter bracket word per structure-constant term; pure free words
    are sorted into canonical order the same way.
    """

    def evaluable(h):
        return h.is_central or datum.in_subalgebra(h)

    out = {}
    stack = [(coeff, (g,) + m.word()) for m, coeff in v.terms.items()]
    while stack:
        c, w = stack.pop()
        while w and c and evaluable(w[-1]):
            c = c * datum.psi(w[-1])
            w = w[:-1]
        if not c:
            continue
        pos = next(
            (i for i in range(len(w) - 2, -1, -1) if evaluable(w[i])), None
        )
        if pos is None:
            pos = next(
                (
                    i
                    for i in range(len(w) - 1)
                    if gen_key(w[i]) > gen_key(w[i + 1])
                ),
                None,
            )
            if pos is None:
                m = PBWMonomial.from_word(w)
                out[m] = out.get(m, ZERO) + c
                continue
        a, b = w[pos], w[pos + 1]
        stack.append((c, w[:pos] + (b, a) + w[pos + 2:]))
        for gen, factor in bracket_basis(a, b).terms.items():
            stack.append((c * factor, w[:pos] + (gen,) + w[pos + 2:]))
    return ModuleVector(out)


PROPERTY_SHAPES = ((1, 1), (1, 2), (2, 2), (3, 1), (1, 4))


def gaussian(complex_part):
    part = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    if not complex_part:
        return part.map(Scalar)
    return st.tuples(part, part).map(lambda pair: Scalar(*pair))


@st.composite
def property_data(draw):
    """A datum on one of ``PROPERTY_SHAPES`` and the scalars its values and
    vectors draw from (rational or Gaussian)."""
    m, n = draw(st.sampled_from(PROPERTY_SHAPES))
    scalars = gaussian(draw(st.booleans()))
    values = {}
    for fam, low, high in (
        ("L", m, 2 * m),
        ("H", m, 2 * m - 1),
        ("I", n, m + n - 1),
        ("J", n, m + n - 1),
    ):
        for index in range(low, high + 1):
            values[Generator(fam, index)] = draw(scalars)
    for central in CENTRALS:
        values[central] = draw(scalars)
    return validate_whittaker(values, m, n), scalars


@st.composite
def acting_pairs(draw, datum, scalars):
    """An acting generator and a multi-term vector for ``datum``.

    The generator is drawn from one of five kinds: free, inside the acting
    subalgebra, central, of negative index, or above the search index bound.
    Vector monomials are free, with an occasional subalgebra or central
    factor that the action must evaluate first.
    """
    m, n = datum.m, datum.n

    def threshold(fam):
        return m if fam in ("L", "H") else n

    fam = draw(st.sampled_from("LHIJ"))
    kind = draw(
        st.sampled_from(("free", "subalgebra", "central", "negative", "high"))
    )
    if kind == "central":
        g = draw(st.sampled_from(CENTRALS))
    elif kind == "free":
        g = Generator(fam, threshold(fam) - draw(st.integers(1, 3)))
    elif kind == "subalgebra":
        g = Generator(fam, threshold(fam) + draw(st.integers(0, m + 1)))
    elif kind == "negative":
        g = Generator(fam, -draw(st.integers(1, 3)))
    else:
        index_max = 2 * m + 2 * n + 5  # the search's bound at weight 3
        g = Generator(fam, index_max + draw(st.integers(1, 3)))

    free_gens = st.builds(
        lambda f, depth: Generator(f, threshold(f) - depth),
        st.sampled_from("LHIJ"),
        st.integers(1, 3),
    )
    other_gens = st.one_of(
        st.sampled_from(CENTRALS),
        st.builds(
            lambda f, k: Generator(f, threshold(f) + k),
            st.sampled_from("LHIJ"),
            st.integers(0, 1),
        ),
    )
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        word = draw(st.lists(free_gens, max_size=4))
        if draw(st.integers(0, 4)) == 0:
            word.append(draw(other_gens))
        mono = PBWMonomial.from_word(sorted(word, key=gen_key))
        terms[mono] = draw(scalars.filter(bool))
    return g, ModuleVector(terms)


@st.composite
def action_cases(draw):
    """A datum, an acting generator and a multi-term vector."""
    datum, scalars = draw(property_data())
    g, v = draw(acting_pairs(datum, scalars))
    return datum, g, v


@settings(max_examples=300, deadline=None, derandomize=True)
@given(action_cases())
def test_action_matches_word_rewriting(case):
    datum, g, v = case
    assert whittaker_act(datum, g, v) == reference_act(datum, g, v)


@st.composite
def shared_scope_cases(draw):
    """One datum and 5-20 (generator, vector) cases of every kind on it."""
    datum, scalars = draw(property_data())
    pairs = draw(
        st.lists(acting_pairs(datum, scalars), min_size=5, max_size=20)
    )
    return datum, pairs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shared_scope_cases())
def test_shared_action_matches_word_rewriting(case):
    # One _LeftAction serves every case, as one serves every column of the
    # search; a stale or mutated memoized image would make a later case,
    # or the second pass in reverse order, disagree with the worklist.
    datum, pairs = case
    action = whittaker._LeftAction(datum)
    expected = [reference_act(datum, g, v) for g, v in pairs]
    assert [action.act(g, v) for g, v in pairs] == expected
    assert [action.act(g, v) for g, v in reversed(pairs)] == expected[::-1]


LONG_DATUM = {
    "I[1]": "1", "J[1]": "2", "L[2]": "3", "c1": "1/2", "c2": "1/5", "c3": "1/3"
}


@pytest.mark.parametrize("g", [I(1), J(1)])
def test_action_on_long_monomial_matches_word_rewriting(g):
    # Far longer than Python's recursion limit allows one frame per factor.
    datum = validate_whittaker(LONG_DATUM, 1, 1)
    v = vec(
        (mono((J(0), 497), (I(0), 2), (H(0), 2), (L(0), 1)), ONE),
        (mono((J(0), 600)), sc(-2)),
    )
    image = whittaker_act(datum, g, v)
    assert len(image.terms) > 2
    assert image == reference_act(datum, g, v)


def test_action_on_long_monomial_closed_form():
    # [L2, L0] = -2 L2, so L2 . L0^k w = psi(L2) (L0 - 2)^k w.
    datum = validate_whittaker(LONG_DATUM, 1, 1)
    k = 500
    expected = ModuleVector(
        {
            mono((L(0), j)) if j else mono(): sc(3 * comb(k, j) * (-2) ** (k - j))
            for j in range(k + 1)
        }
    )
    assert whittaker_act(datum, L(2), vec((mono((L(0), k)), ONE))) == expected


BOUND_SHAPES = ((1, 1), (1, 2), (2, 2), (3, 1), (2, 1))


@st.composite
def bound_cases(draw):
    """A datum and a 1-3 term vector of free monomials.

    Free factors reach up to four below their family's threshold, so the
    monomials mix positive-index factors (``L[1]`` at m = 3) with
    negative-index ones.
    """
    m, n = draw(st.sampled_from(BOUND_SHAPES))
    scalars = gaussian(draw(st.booleans()))
    values = {}
    for fam, low, high in (
        ("L", m, 2 * m),
        ("H", m, 2 * m - 1),
        ("I", n, m + n - 1),
        ("J", n, m + n - 1),
    ):
        for index in range(low, high + 1):
            values[Generator(fam, index)] = draw(scalars)
    for central in CENTRALS:
        values[central] = draw(scalars)
    datum = validate_whittaker(values, m, n)
    free_gens = st.builds(
        lambda f, depth: Generator(f, (m if f in "LH" else n) - depth),
        st.sampled_from("LHIJ"),
        st.integers(1, 4),
    )
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        word = draw(st.lists(free_gens, min_size=1, max_size=4))
        mono = PBWMonomial.from_word(sorted(word, key=gen_key))
        terms[mono] = draw(scalars.filter(bool))
    return datum, ModuleVector(terms)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(bound_cases())
def test_annihilation_bound_is_sound(case):
    # The search prunes every operator above this bound, so it must hold
    # for the independent worklist action, not only for whittaker_act.
    datum, v = case
    bound = annihilation_bound(datum, v)
    for fam in "LHIJ":
        for index in range(bound + 1, bound + 5):
            g = Generator(fam, index)
            assert reference_act(datum, g, v) == ModuleVector.zero(), (
                datum, g, str(v)
            )


# -- weights and orders ---------------------------------------------------------


def test_weight_examples():
    assert weight((1, 2)) == 5
    assert weight((0, 0, 0)) == 0
    assert weight(epsilon(3, 0)) == 3


def test_reverse_lex_examples():
    assert reverse_lex_compare((0, 1), (1, 0)) == 1
    assert reverse_lex_compare((2, 1), (2, 1)) == 0
    assert reverse_lex_compare((2, 0, 0), (1, 1, 0)) == -1
    with pytest.raises(LengthMismatch):
        reverse_lex_compare((1,), (1, 0))


def test_principal_compare_examples():
    assert principal_compare(((0, 0), (0, 1)), ((0, 1), (0, 0))) == 1
    assert principal_compare(((1, 0), (0, 1)), ((1, 0), (0, 1))) == 0
    # Lower total weight loses regardless of the blocks.
    assert principal_compare(((0, 1), (1, 0)), ((2, 0), (0, 2))) == -1


def test_principal_compare_is_total_order():
    rng = random.Random(59)
    pairs = []
    for _ in range(200):
        pairs.append(
            (
                tuple(rng.randint(0, 2) for _ in range(3)),
                tuple(rng.randint(0, 2) for _ in range(3)),
            )
        )
    for p in pairs:
        assert principal_compare(p, p) == 0
    for a, b in zip(pairs, pairs[1:]):
        assert principal_compare(a, b) == -principal_compare(b, a)
    for a, b, c in zip(pairs, pairs[1:], pairs[2:]):
        if principal_compare(a, b) <= 0 and principal_compare(b, c) <= 0:
            assert principal_compare(a, c) <= 0


def test_vector_degree_two_term():
    v = vec(
        (mono((J(1), 1), (I(0), 1)), ONE),
        (mono((I(0), 1)), ONE),
    )
    # The J1 I0 term carries weight 3, beating weight 2; its exponents are
    # j = (1, 0) and i = (0, 1) written highest index first.
    assert vector_degree(v, "JI", 2) == ((1, 0), (0, 1))


def test_vector_degree_cyclic():
    assert vector_degree(ModuleVector.cyclic(), "JI", 2) == ((0, 0), (0, 0))


def test_vector_degree_wrong_block():
    v = vec((mono((L(0), 1)), ONE))
    with pytest.raises(UnsupportedMonomial):
        vector_degree(v, "JI", 2)
    with pytest.raises(ZeroVector):
        vector_degree(ModuleVector.zero(), "JI", 2)


def test_unknown_block_is_refused_as_such():
    datum = psi_11()
    v = vec((mono((J(0), 1)), ONE))
    for call in (
        lambda: block_length(datum, "XY"),
        lambda: random_block_vector(random.Random(0), datum, "XY"),
        lambda: vector_degree(v, "XY", 1),
        lambda: check_degree_reduction(datum, v, "XY"),
    ):
        with pytest.raises(ValueError, match=r"^unknown block 'XY'$"):
            call()


# -- the order rules against the pairwise loops they replaced ---------------------


def reference_reverse_lex(a, b):
    if len(a) != len(b):
        raise LengthMismatch(f"lengths {len(a)} and {len(b)} differ")
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x > y else -1
    return 0


def reference_principal(p1, p2):
    (j1, i1), (j2, i2) = p1, p2
    if len(j1) != len(i1) or len(j2) != len(i2) or len(j1) != len(j2):
        raise LengthMismatch("pair blocks must share one length")
    w1 = weight(i1) + weight(j1)
    w2 = weight(i2) + weight(j2)
    if w1 != w2:
        return 1 if w1 > w2 else -1
    by_second = reference_reverse_lex(i1, i2)
    if by_second:
        return by_second
    return reference_reverse_lex(j1, j2)


def reference_vector_degree(v, block, length):
    fam_first, fam_second = {"JI": ("J", "I"), "HL": ("H", "L")}[block]
    best = None
    for term in v.terms:
        first = [0] * length
        second = [0] * length
        for g, exp in term.factors:
            if g.index is None or not 0 <= g.index < length:
                raise UnsupportedMonomial(f"{term} strays outside the block")
            if g.family == fam_first:
                first[length - 1 - g.index] = exp
            elif g.family == fam_second:
                second[length - 1 - g.index] = exp
            else:
                raise UnsupportedMonomial(f"{term} strays outside the block")
        pair = (tuple(first), tuple(second))
        if best is None or reference_principal(pair, best) > 0:
            best = pair
    return best


def outcome(fn, *args):
    """The value, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def exponent_vectors(length):
    return st.lists(st.integers(0, 3), min_size=length, max_size=length).map(tuple)


@st.composite
def vector_pairs(draw):
    """Two exponent vectors, of one length half the time."""
    first = draw(exponent_vectors(draw(st.integers(0, 4))))
    same = draw(st.booleans())
    length = len(first) if same else draw(st.integers(0, 4))
    return first, draw(exponent_vectors(length))


@st.composite
def pair_pairs(draw):
    """Two (first, second) pairs, all four blocks of one length unless a
    length is redrawn."""
    length = draw(st.integers(0, 3))
    blocks = []
    for _ in range(4):
        own = draw(st.integers(0, 3)) if draw(st.integers(0, 9)) == 0 else length
        blocks.append(draw(exponent_vectors(own)))
    return (blocks[0], blocks[1]), (blocks[2], blocks[3])


@given(vector_pairs())
@settings(max_examples=300, deadline=None)
def test_reverse_lex_compare_matches_pairwise_loop(vectors):
    assert outcome(reverse_lex_compare, *vectors) == outcome(
        reference_reverse_lex, *vectors
    )


@given(pair_pairs())
@settings(max_examples=300, deadline=None)
def test_principal_compare_matches_pairwise_loop(pairs):
    assert outcome(principal_compare, *pairs) == outcome(
        reference_principal, *pairs
    )


@st.composite
def block_vectors(draw):
    """A datum shape, a block, its length and a vector mostly on the block;
    one term in ten carries a factor outside it."""
    m, n = draw(st.sampled_from([(1, 1), (2, 2), (3, 1), (2, 4)]))
    block = draw(st.sampled_from(["JI", "HL"]))
    length = n if block == "JI" else m
    families = {"JI": ("J", "I"), "HL": ("H", "L")}[block]
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        factors = [
            (Generator(family, idx), draw(st.integers(0, 3)))
            for family in families
            for idx in range(length)
        ]
        if draw(st.integers(0, 9)) == 0:
            family = draw(st.sampled_from("LHIJ"))
            factors.append((Generator(family, length), 1))
        factors = sorted(
            ((g, e) for g, e in factors if e), key=lambda pair: gen_key(pair[0])
        )
        terms[PBWMonomial(factors)] = sc(draw(st.integers(1, 5)))
    return block, length, ModuleVector(terms)


@given(block_vectors())
@settings(max_examples=300, deadline=None)
def test_vector_degree_matches_pairwise_loop(case):
    block, length, v = case
    assert outcome(vector_degree, v, block, length) == outcome(
        reference_vector_degree, v, block, length
    )


# -- the subalgebra thresholds -----------------------------------------------------


@pytest.mark.parametrize("m,n", [(1, 0), (1, 1), (2, 1), (1, 3), (3, 2), (2, 4)])
def test_subalgebra_membership_matches_reference(m, n):
    datum = validate_whittaker({}, m, n)
    for family in "LHIJ":
        start = m if family in "LH" else n
        for index in range(-5, 2 * m + n + 6):
            g = Generator(family, index)
            assert datum.in_subalgebra(g) == (index >= start), g
            assert datum.is_free(g) == (index < start), g
    for g in CENTRALS:
        assert datum.in_subalgebra(g) and not datum.is_free(g)
    assert block_length(datum, "JI") == n
    assert block_length(datum, "HL") == m


# -- the L/H normalization rule ----------------------------------------------------


@pytest.mark.parametrize("m,n", [(1, 1), (2, 0), (2, 2), (3, 1)])
def test_unnormalized_lists_nonzero_lh_values_from_m_plus_n(m, n):
    datum = validate_whittaker({}, m, n)
    positions = [g for g in datum.support() if g.family in ("L", "H")]
    values = {g: sc(k + 1) for k, g in enumerate(positions)}
    datum = validate_whittaker(values, m, n)
    assert datum.unnormalized() == [g for g in positions if g.index >= m + n]
    # A value exactly at index m + n counts; zero values never do.
    edge = [g for g in positions if g.index == m + n]
    assert edge
    datum = validate_whittaker({g: sc(1) for g in edge}, m, n)
    assert datum.unnormalized() == edge
    assert validate_whittaker({g: "0" for g in positions}, m, n).unnormalized() == []


# -- degree-drop checks ---------------------------------------------------------


def psi_22():
    return validate_whittaker({"I[3]": "1", "J[3]": "1"}, 2, 2)


def test_degree_drop_j_case():
    datum = psi_22()
    v = vec((mono((J(0), 1)), ONE))
    report = check_degree_reduction(datum, v, "JI")
    assert report.case == "JI_j_nonzero"
    assert report.ok
    assert report.operators == ["H[3]"]
    assert report.predicted == ((0, 0), (0, 0))


def test_degree_drop_i_case_disjunction():
    datum = psi_22()
    v = vec((mono((I(1), 1)), ONE))
    report = check_degree_reduction(datum, v, "JI")
    assert report.case == "JI_i_only"
    assert report.ok
    assert report.operators == ["H[2]", "L[2]"]
    assert report.predicted == ((0, 0), (0, 0))
    assert report.branch is not None


def test_degree_drop_rejects_cyclic_vector():
    datum = psi_11()
    with pytest.raises(PreconditionViolated):
        check_degree_reduction(datum, ModuleVector.cyclic(), "JI")


def test_degree_drop_requires_nonzero_top_values():
    datum = validate_whittaker({"J[3]": "1"}, 2, 2)
    v = vec((mono((J(0), 1)), ONE))
    with pytest.raises(PreconditionViolated):
        check_degree_reduction(datum, v, "JI")


def test_degree_drop_requires_same_parity():
    datum = validate_whittaker({"I[2]": "1", "J[2]": "1"}, 1, 2)
    v = vec((mono((J(0), 1)), ONE))
    with pytest.raises(PreconditionViolated):
        check_degree_reduction(datum, v, "JI")


def test_degree_drop_hl_requires_normalization():
    datum = validate_whittaker(
        {"I[1]": "1", "J[1]": "1", "L[2]": "6"}, 1, 1
    )
    v = vec((mono((L(0), 1)), ONE))
    with pytest.raises(PreconditionViolated):
        check_degree_reduction(datum, v, "HL")


def test_degree_drop_hl_cases():
    datum = psi_11()
    h_vec = vec((mono((H(0), 1)), ONE))
    report = check_degree_reduction(datum, h_vec, "HL")
    assert report.case == "HL_h_nonzero"
    assert report.ok and report.operators == ["I[1]"]
    l_vec = vec((mono((L(0), 1)), ONE))
    report = check_degree_reduction(datum, l_vec, "HL")
    assert report.case == "HL_l_only"
    assert report.ok and report.operators == ["I[1]", "J[1]"]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 1)])
def test_degree_drop_random_vectors(m, n):
    top = m + n - 1
    datum = validate_whittaker(
        {f"I[{top}]": "1", f"J[{top}]": "1"}, m, n
    )
    rng = random.Random(1000 + 10 * m + n)
    for _ in range(25):
        for block in ("JI", "HL"):
            block_length = n if block == "JI" else m
            v = random_block_vector(rng, datum, block, max_exponent=2)
            first, _ = vector_degree(v, block, block_length)
            if any(first):
                case = f"{block}_{'j' if block == 'JI' else 'h'}_nonzero"
            else:
                case = f"{block}_{'i' if block == 'JI' else 'l'}_only"
            report = check_degree_reduction(datum, v, block)
            assert report.case == case
            assert report.ok, (m, n, block, str(v), report.to_json())


# -- singular-vector search ------------------------------------------------------


def generating_set_names(m, n):
    return (
        [f"L[{p}]" for p in range(m, 2 * m + 1)]
        + [f"H[{p}]" for p in range(m, 2 * m)]
        + [f"I[{p}]" for p in range(n, n + m)]
        + [f"J[{p}]" for p in range(n, n + m)]
    )


def test_search_none_when_top_values_nonzero():
    report = singular_vector_search(psi_11(), 4)
    assert not report.found
    assert report.witness is None
    assert report.operators == generating_set_names(1, 1)


def test_search_finds_i_witness_when_i_vanishes():
    datum = validate_whittaker({"J[1]": "1"}, 1, 1)
    report = singular_vector_search(datum, 4)
    assert report.found
    assert report.witness == vec((mono((I(0), 1)), ONE))


def test_search_finds_j_witness_when_j_vanishes():
    datum = validate_whittaker({"I[1]": "1"}, 1, 1)
    report = singular_vector_search(datum, 4)
    assert report.found
    assert report.witness == vec((mono((J(0), 1)), ONE))


def test_search_finds_ij_pair_witness():
    # With both top values equal to 1 at (m, n) = (1, 2) the witness is
    # I1 w + J1 w.
    datum = validate_whittaker({"I[2]": "1", "J[2]": "1"}, 1, 2)
    report = singular_vector_search(datum, 3)
    assert report.found
    assert report.witness == vec(
        (mono((I(1), 1)), ONE), (mono((J(1), 1)), ONE)
    )


def test_search_ij_pair_witness_ratio():
    datum = validate_whittaker({"I[2]": "3", "J[2]": "2"}, 1, 2)
    report = singular_vector_search(datum, 3)
    # Normalized to lead with I1; the J1 coefficient is alpha/beta = 3/2.
    assert report.witness == vec(
        (mono((I(1), 1)), ONE), (mono((J(1), 1)), sc(Fraction(3, 2)))
    )


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (1, 2), (2, 1), (1, 4)])
def test_search_finds_witness_in_both_vanishing_branches(m, n):
    top = m + n - 1
    # Vanishing I-value (J-value kept nonzero): I[n-1] witness.
    datum = validate_whittaker({f"J[{top}]": "1"}, m, n)
    report = singular_vector_search(datum, 3)
    assert report.found
    assert report.witness == vec((mono((I(n - 1), 1)), ONE))
    # Vanishing J-value: J[n-1] witness.
    datum = validate_whittaker({f"I[{top}]": "1"}, m, n)
    report = singular_vector_search(datum, 3)
    assert report.found
    assert report.witness == vec((mono((J(n - 1), 1)), ONE))


def test_search_witness_annihilated_by_shifted_generators():
    datum = validate_whittaker({"I[2]": "1", "J[2]": "1"}, 1, 2)
    report = singular_vector_search(datum, 3)
    for fam, start in (("L", 1), ("H", 1), ("I", 2), ("J", 2)):
        for idx in range(start, start + 6):
            g = Generator(fam, idx)
            shifted = whittaker_act(datum, g, report.witness) - report.witness.scale(
                datum.psi(g)
            )
            assert shifted == ModuleVector.zero()


SEARCH_DATA = [
    (1, 1, {"I[1]": "1", "J[1]": "1"}),
    (1, 1, {"J[1]": "1"}),
    (1, 1, {"I[1]": "1"}),
    (1, 1, {"I[1]": "1", "J[1]": "2", "L[1]": "3", "L[2]": "1/2", "H[1]": "-1"}),
    (1, 2, {"I[2]": "3", "J[2]": "2"}),
    (2, 2, {"I[3]": "1", "J[3]": "1", "L[2]": "1/2", "H[3]": "-1"}),
    (3, 1, {"I[3]": "1", "J[3]": "1", "L[6]": "2", "c1": "1/3"}),
    (1, 4, {"I[4]": "1", "J[4]": "1"}),
    (2, 1, {"I[2]": "1", "J[2]": "2"}),
    (2, 0, {"I[0]": "1", "J[0]": "1", "I[1]": "1", "J[1]": "2"}),
]


def search_outcome(report):
    return report.found, report.witness, report.basis_size


@pytest.mark.parametrize("m,n,values", SEARCH_DATA)
def test_search_generating_set_matches_all_operators(monkeypatch, m, n, values):
    datum = validate_whittaker(values, m, n)
    expected = search_outcome(singular_vector_search(datum, 4))
    index_max = 2 * m + 2 * n + 4 + 2
    monkeypatch.setattr(
        whittaker,
        "_generating_set",
        lambda d: whittaker._search_operators(d, index_max),
    )
    assert search_outcome(singular_vector_search(datum, 4)) == expected


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 1)])
def test_search_rejects_witness_from_incomplete_generating_set(
    monkeypatch, m, n
):
    # The L operators alone do not generate the subalgebra, so their rows
    # leave a kernel vector that is no Whittaker vector; re-verification
    # must catch it instead of returning it.
    top = m + n - 1
    datum = validate_whittaker({f"I[{top}]": "1", f"J[{top}]": "1"}, m, n)
    monkeypatch.setattr(
        whittaker,
        "_generating_set",
        lambda d: [L(p) for p in range(d.m, 2 * d.m + 1)],
    )
    with pytest.raises(AssertionError, match="re-verification"):
        singular_vector_search(datum, 4)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_generating_set_spans_subalgebra(m, n):
    # Close the generating set under brackets up to a bound; inside the
    # subalgebra every bracket is a multiple of one basis generator (all
    # indices are nonnegative, so nothing above the bound feeds back).
    bound = 4 * m + 2 * n + 10
    datum = validate_whittaker({}, m, n)
    gens = whittaker._generating_set(datum)
    assert len(gens) == 4 * m + 1
    assert all(datum.in_subalgebra(g) and not g.is_central for g in gens)
    span = set(gens)
    queue = list(gens)
    while queue:
        x = queue.pop()
        for y in list(span):
            for g in bracket_basis(x, y).terms:
                assert datum.in_subalgebra(g)
                if not g.is_central and g.index <= bound and g not in span:
                    span.add(g)
                    queue.append(g)
    expected = {
        Generator(fam, p)
        for fam, low in (("L", m), ("H", m), ("I", n), ("J", n))
        for p in range(low, bound + 1)
    }
    assert span == expected


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 1)])
def test_search_none_at_weight_six(m, n):
    # Criterion 4's data, one weight past the acceptance campaigns.
    top = m + n - 1
    datum = validate_whittaker({f"I[{top}]": "1", f"J[{top}]": "1"}, m, n)
    report = singular_vector_search(datum, 6)
    assert not report.found
    assert report.witness is None
    assert report.operators == generating_set_names(m, n)


def test_search_memo_peak_memory():
    # Every column shares one memo of tuple images, kept per generator; it
    # peaks near 1.5 MB here.  A shared memo of dict images under
    # (generator, monomial) keys peaked at 3.0 MB, so this guard keeps that
    # layout out.
    datum = validate_whittaker({"I[3]": "1", "J[3]": "1"}, 3, 1)
    tracemalloc.start()
    try:
        singular_vector_search(datum, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_search_leaves_no_cyclic_garbage():
    # Whatever a search allocates is freed by reference counting when it
    # returns; a reference cycle would wait for the cyclic collector.
    datum = validate_whittaker({"I[3]": "1", "J[3]": "1"}, 3, 1)
    gc.collect()
    gc.disable()
    try:
        singular_vector_search(datum, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 1)])
def test_search_none_at_weight_seven(m, n):
    # Criterion 4's data, three weights past the acceptance campaigns
    # (2229 basis monomials).
    top = m + n - 1
    datum = validate_whittaker({f"I[{top}]": "1", f"J[{top}]": "1"}, m, n)
    report = singular_vector_search(datum, 7)
    assert not report.found
    assert report.witness is None


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 1)])
def test_search_none_at_weight_eight(m, n):
    # Criterion 4's data at 4809 basis monomials.
    top = m + n - 1
    datum = validate_whittaker({f"I[{top}]": "1", f"J[{top}]": "1"}, m, n)
    report = singular_vector_search(datum, 8)
    assert not report.found
    assert report.witness is None
    assert report.basis_size == 4809


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 1)])
def test_search_none_at_weight_nine(m, n):
    # Criterion 4's data at 9989 basis monomials.
    top = m + n - 1
    datum = validate_whittaker({f"I[{top}]": "1", f"J[{top}]": "1"}, m, n)
    report = singular_vector_search(datum, 9)
    assert not report.found
    assert report.witness is None
    assert report.basis_size == 9989


@pytest.mark.parametrize("bound", [-2, 0, True, 1.5, "3"])
def test_search_refuses_a_bound_that_is_no_positive_int(bound):
    with pytest.raises(ValueError, match="weight_bound must be a positive integer"):
        singular_vector_search(psi_11(), bound)


def test_search_elimination_work_guard(monkeypatch):
    # A count of row updates, independent of machine speed.  Rows inserted
    # by descending lead, back-substituted only into rows whose pivot lies
    # below the new lead, make about 14.3k updates here; the
    # (operator, output monomial) order made about 32.7k.
    calls = [0]
    subtract = linalg._subtract

    def counted(*args):
        calls[0] += 1
        subtract(*args)

    monkeypatch.setattr(linalg, "_subtract", counted)
    singular_vector_search(psi_11(), 6)
    assert calls[0] < 20_000


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 1)])
def test_search_checks_only_its_columns(monkeypatch, m, n):
    # A count of factor-order checks, independent of machine speed.  Only
    # the basis columns go through the checking constructor; the action's
    # own monomials are canonical by construction.  Checking those as well
    # made 3191, 5112 and 7063 checked constructions here.
    calls = [0]
    new = PBWMonomial.__new__

    def counted(cls, *args):
        calls[0] += 1
        return new(cls, *args)

    monkeypatch.setattr(PBWMonomial, "__new__", counted)
    top = m + n - 1
    datum = validate_whittaker({f"I[{top}]": "1", f"J[{top}]": "1"}, m, n)
    report = singular_vector_search(datum, 5)
    assert calls[0] == report.basis_size == 415


def reference_search_echelon(datum, weight_bound):
    """The search's columns and reduced system, with rows inserted in the
    earlier order: sorted by (operator name, output monomial)."""
    columns = sorted(
        whittaker._monomials_up_to_weight(datum, weight_bound),
        key=lambda pair: (pair[1], str(pair[0])),
    )
    action = whittaker._LeftAction(datum)
    rows = {}
    for col, (mono, _) in enumerate(columns):
        for op in whittaker._generating_set(datum):
            shifted = dict(action.image(op, mono))
            accumulate(shifted, mono, -datum.psi(op))
            for out_mono, coeff in shifted.items():
                rows.setdefault((op, out_mono), {})[col] = coeff
    echelon = SparseEchelon()
    for key in sorted(rows, key=lambda key: (gen_str(key[0]), str(key[1]))):
        echelon.insert(rows[key])
    return columns, echelon


_psi_value = st.sampled_from(
    [ZERO, sc(1), sc(-2), sc(Fraction(1, 3)), sc(2, 1), sc(0, Fraction(-1, 2)), sc(3, -2)]
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_search_matches_the_earlier_row_order(data):
    # Real and complex values with centrals; the top pair vanishes in about
    # half the draws, and (1, 2) breaks parity, so many draws have a witness.
    m, n = data.draw(st.sampled_from([(1, 1), (2, 2), (3, 1), (1, 2)]))
    top = m + n - 1
    values = {
        gen_str(g): data.draw(_psi_value)
        for g in whittaker.WhittakerDatum(m, n, {}).support() + list(CENTRALS)
    }
    for name in (f"I[{top}]", f"J[{top}]"):
        values[name] = data.draw(st.sampled_from([ZERO, sc(1), sc(2, 1)]))
    datum = validate_whittaker(values, m, n)
    weight_bound = data.draw(st.integers(1, 4))
    made = []

    class Recorded(SparseEchelon):
        def __init__(self):
            super().__init__()
            made.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(whittaker, "SparseEchelon", Recorded)
        report = singular_vector_search(datum, weight_bound)
    (echelon,) = made
    columns, expected = reference_search_echelon(datum, weight_bound)
    assert echelon.pivots == expected.pivots
    kernel = expected.kernel_vector_at_first_free_column(len(columns))
    assert echelon.kernel_vector_at_first_free_column(len(columns)) == kernel
    if kernel is None:
        assert report.witness is None
    else:
        scale = kernel[min(kernel)].inverse()
        assert report.witness == ModuleVector(
            {columns[col][0]: coeff * scale for col, coeff in kernel.items()}
        )


# -- the twist -------------------------------------------------------------------


def test_twist_matrices_size_one():
    datum = psi_11({"L[2]": "6"})
    a, b, c, d = twist_matrices(datum)
    assert a.rows == ((sc(3),),)
    assert b.rows == ((sc(3),),)
    assert c.rows == ((sc(-1),),)
    assert d.rows == ((sc(1),),)


def test_twist_matrices_m2_n0_diagonal():
    datum = validate_whittaker(
        {"I[0]": "1", "J[0]": "1", "I[1]": "1", "J[1]": "1"}, 2, 0
    )
    a, _, _, _ = twist_matrices(datum)
    assert [a.rows[t][t] for t in range(3)] == [sc(3), sc(5), sc(7)]
    # Upper-right corner uses the below-range value, which counts as zero.
    assert a.rows[0][2] == ZERO


def test_twist_block_invertible_for_random_values():
    from planargca.linalg import Matrix, determinant

    rng = random.Random(4)
    for _ in range(5):
        values = {
            "I[1]": str(rng.randint(1, 5)),
            "J[1]": str(rng.randint(1, 5)),
            "I[0]": str(rng.randint(-3, 3)),
            "J[0]": str(rng.randint(-3, 3)),
        }
        datum = validate_whittaker(values, 2, 0)
        a, b, c, d = twist_matrices(datum)
        size = 3
        block = Matrix(
            [list(a.rows[t]) + list(b.rows[t]) for t in range(size)]
            + [list(c.rows[t]) + list(d.rows[t]) for t in range(size)]
        )
        assert determinant(block)


def test_twist_requires_m_at_least_n():
    datum = validate_whittaker({"I[2]": "1", "J[2]": "1"}, 1, 2)
    with pytest.raises(PreconditionViolated):
        twist_matrices(datum)


def test_twist_requires_nonzero_top_values():
    datum = validate_whittaker({"J[1]": "1"}, 1, 1)
    with pytest.raises(PreconditionViolated):
        solve_twist(datum)


def test_twist_size_one_instance():
    datum = psi_11({"L[2]": "6"})
    result = solve_twist(datum)
    assert result.a == [ONE]
    assert result.b == [ONE]
    assert result.translation.element.to_json() == {
        "J[-1]": "-1",
        "I[-1]": "-1",
    }
    assert result.twisted.psi(L(2)) == ZERO
    assert result.twisted.psi(H(2)) == ZERO
    assert result.twisted.psi(I(1)) == ONE


def test_twist_identity_when_already_normalized():
    datum = psi_11()
    result = solve_twist(datum)
    assert result.a == [ZERO]
    assert result.b == [ZERO]
    assert result.twisted.values == datum.values


def test_twist_round_trip_m2_n0():
    values = {
        "I[0]": "2",
        "J[0]": "-1",
        "I[1]": "3",
        "J[1]": "1/2",
        "L[2]": "5",
        "L[3]": "-7",
        "L[4]": "1/3",
        "H[2]": "4",
        "H[3]": "-2",
    }
    datum = validate_whittaker(values, 2, 0)
    result = solve_twist(datum)
    # Recompute every twisted value independently through the translation.
    for p in range(2, 5):
        assert result.twisted.psi(L(p)) == datum.psi_element(
            result.translation.apply(L(p))
        )
        assert result.twisted.psi(L(p)) == ZERO
    for p in range(2, 4):
        assert result.twisted.psi(H(p)) == datum.psi_element(
            result.translation.apply(H(p))
        )
        assert result.twisted.psi(H(p)) == ZERO
    # I/J values are untouched by the twist.
    for key in ("I[0]", "J[0]", "I[1]", "J[1]"):
        gen = I(int(key[2:-1])) if key[0] == "I" else J(int(key[2:-1]))
        assert result.twisted.psi(gen) == datum.psi(gen)


# -- the (1, 4) example -----------------------------------------------------------


def test_psi14_matrix_shape():
    matrix = psi14_matrix(sc(1), sc(1))
    assert matrix.nrows == matrix.ncols == 5
    assert matrix.rows[0] == (sc(1), sc(-1), ZERO, ZERO, ZERO)


def test_psi14_singular_for_random_parameters():
    from planargca.linalg import determinant

    rng = random.Random(8)
    for _ in range(5):
        alpha = sc(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        beta = sc(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        assert determinant(psi14_matrix(alpha, beta)) == ZERO


def test_psi14_kernel_dimension_one_at_unit_parameters():
    from planargca.linalg import matrix_nullspace

    kernel = matrix_nullspace(psi14_matrix(sc(1), sc(1)))
    assert len(kernel) == 1
    assert kernel[0] == [
        sc(4),
        sc(4),
        sc(Fraction(-3, 2)),
        sc(Fraction(-3, 2)),
        sc(1),
    ]


def test_psi14_result_carries_the_kernel():
    from planargca.linalg import matrix_nullspace

    for alpha, beta in ((sc(1), sc(1)), (sc(Fraction(2, 3)), sc(-5))):
        result = example_psi14_witness(alpha, beta)
        assert result.kernel == matrix_nullspace(result.matrix)
        assert result.coefficients == result.kernel[0]
        assert len(result.kernel) == 1


def test_psi14_witness_verified():
    result = example_psi14_witness(sc(1), sc(1))
    # Every subalgebra operator up to index 12 acts on the witness by its
    # psi-value, each checked with a fresh action.
    assert not any(
        whittaker_act(result.datum, op, result.witness)
        - result.witness.scale(result.datum.psi(op))
        for op in whittaker._search_operators(result.datum, 12)
    )
    assert result.witness.terms[mono((I(2), 1))] == sc(4)
    assert result.witness.terms[mono((J(3), 1), (I(3), 1))] == sc(1)


def test_psi14_rejects_zero_parameters():
    with pytest.raises(PreconditionViolated):
        example_psi14_witness(sc(1), sc(0))


def test_search_matches_psi14_witness_ray():
    datum = validate_whittaker({"I[4]": "1", "J[4]": "1"}, 1, 4)
    report = singular_vector_search(datum, 2)
    assert report.found
    example = example_psi14_witness(sc(1), sc(1))
    # Same ray: the search normalizes the leading coefficient to 1.
    lead = mono((I(2), 1))
    ratio = example.witness.terms[lead]
    assert report.witness == example.witness.scale(ratio.inverse())
