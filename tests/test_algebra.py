import copy
import itertools
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planargca import algebra
from planargca.algebra import (
    C1,
    C2,
    C3,
    Element,
    Generator,
    H,
    I,
    IJTranslation,
    InvalidTranslation,
    J,
    L,
    bracket,
    bracket_basis,
    gen_key,
    gen_str,
    generators_up_to,
    grade,
    parse_gen,
    verify_jacobi,
    verify_structure,
)
from planargca.scalars import ONE, sc


def test_bracket_ll_with_central_term():
    assert bracket_basis(L(2), L(-2)) == Element(
        {L(0): sc(-4), C1: sc(Fraction(1, 2))}
    )


def test_bracket_lh_with_central_term():
    assert bracket_basis(L(1), H(-1)) == Element({H(0): sc(-1), C2: sc(1)})


def test_bracket_hh_central():
    assert bracket_basis(H(3), H(-3)) == Element({C3: sc(3)})


def test_bracket_hi_shift():
    assert bracket_basis(H(0), I(5)) == Element({I(5): ONE})


def test_bracket_ij_vanishes():
    assert bracket_basis(I(3), J(-3)) == Element.zero()
    assert bracket_basis(J(2), J(5)) == Element.zero()
    assert bracket_basis(I(1), I(-1)) == Element.zero()


def test_central_fraction_is_exact():
    # At index 2 the L/L central coefficient is (8-2)/12 = 1/2, not an int.
    assert bracket_basis(L(2), L(-2)).coeff(C1) == sc(Fraction(1, 2))


def test_bracket_bilinear_cancellation():
    x = Element({L(1): ONE, H(1): ONE})
    # [L1, I0] = -I1 and [H1, I0] = I1 cancel.
    assert bracket(x, Element.single(I(0))) == Element.zero()


def test_bracket_self_is_zero():
    x = Element({L(1): sc(2), H(-2): sc(3), I(0): ONE})
    assert bracket(x, x) == Element.zero()


def test_central_elements_are_central():
    for g in (L(3), H(-1), I(0), J(7), C2):
        assert bracket_basis(C1, g) == Element.zero()
        assert bracket_basis(g, C3) == Element.zero()


def test_grading():
    assert grade(L(5)) == 5
    assert grade(C2) == 0
    assert grade(J(-3)) == -3


def test_antisymmetry_exhaustive():
    gens = [Generator(fam, idx) for fam in "LHIJ" for idx in range(-6, 7)]
    gens += [C1, C2, C3]
    for a, b in itertools.combinations_with_replacement(gens, 2):
        assert bracket_basis(a, b) + bracket_basis(b, a) == Element.zero()


def test_grading_of_brackets():
    gens = [Generator(fam, idx) for fam in "LHIJ" for idx in range(-4, 5)]
    for a, b in itertools.combinations(gens, 2):
        result = bracket_basis(a, b)
        for g in result.terms:
            if not g.is_central:
                assert grade(g) == grade(a) + grade(b)


def test_jacobi_small_bound():
    report = verify_jacobi(3)
    assert report.ok
    assert report.violations == []


def test_jacobi_single_triple():
    a, b, c = L(1), L(2), L(3)
    total = (
        bracket(Element.single(a), bracket_basis(b, c))
        + bracket(Element.single(b), bracket_basis(c, a))
        + bracket(Element.single(c), bracket_basis(a, b))
    )
    assert total == Element.zero()


def test_jacobi_with_centrals_trivial():
    total = (
        bracket(Element.single(C1), bracket_basis(L(1), L(-1)))
        + bracket(Element.single(L(1)), bracket_basis(L(-1), C1))
        + bracket(Element.single(L(-1)), bracket_basis(C1, L(1)))
    )
    assert total == Element.zero()


def reference_jacobi(index_bound):
    """The Jacobi sweep as three brackets added up, through whatever
    ``algebra.bracket_basis`` is at call time."""
    checked, violations = 0, []
    gens = generators_up_to(index_bound)
    for a, b, c in itertools.combinations_with_replacement(gens, 3):
        total = (
            bracket(Element.single(a), algebra.bracket_basis(b, c))
            + bracket(Element.single(b), algebra.bracket_basis(c, a))
            + bracket(Element.single(c), algebra.bracket_basis(a, b))
        )
        checked += 1
        if total:
            violations.append(f"jacobi({a},{b},{c}) = {total}")
    return checked, violations


TRUE_BRACKET = algebra.bracket_basis


def corrupted_bracket(kind):
    """``bracket_basis`` with one entry altered in one orientation only.

    Scaling a whole family of brackets (all of [H, I], or the Virasoro
    cocycle) keeps the Jacobi identity, so each corruption changes one
    orientation: [H_m, I_n] = 2 I_(m+n) with [I_n, H_m] kept, or the c1
    coefficient of [L_m, L_-m] doubled for m > 0 only.
    """

    def table(g1, g2):
        out = TRUE_BRACKET(g1, g2)
        if kind == "H-I doubled" and (g1.family, g2.family) == ("H", "I"):
            return out.scale(sc(2))
        if kind == "LL central doubled" and g1.family == "L" == g2.family and g1.index > 0:
            return out + Element({C1: out.coeff(C1)})
        return out

    return table


@pytest.mark.parametrize("kind", [None, "H-I doubled", "LL central doubled"])
def test_jacobi_sweep_matches_the_three_bracket_sum(kind):
    # The sweep's one sum names the same triples, with the same totals, in
    # the same order, as the three brackets added up; a corrupted table
    # makes both report.
    table = TRUE_BRACKET if kind is None else corrupted_bracket(kind)
    with mock.patch.object(algebra, "bracket_basis", table):
        report = verify_jacobi(3)
        assert (report.jacobi_checked, report.violations) == reference_jacobi(3)
    assert bool(report.violations) == (kind is not None)


def test_translation_on_l2():
    t = IJTranslation(Element({I(-1): sc(-1), J(-1): sc(-1)}))
    assert t.apply(L(2)) == Element(
        {L(2): ONE, I(1): sc(-3), J(1): sc(-3)}
    )


def test_translation_on_h2():
    t = IJTranslation(Element({I(-1): sc(-1), J(-1): sc(-1)}))
    assert t.apply(H(2)) == Element({H(2): ONE, I(1): ONE, J(1): sc(-1)})


def test_translation_fixes_centrals():
    t = IJTranslation(Element({I(2): sc(5), J(-7): ONE}))
    assert t.apply(C3) == Element.single(C3)


def test_translation_support_validated():
    with pytest.raises(InvalidTranslation):
        IJTranslation(Element({L(0): ONE}))


def test_translation_is_automorphism_sampled():
    rng = random.Random(17)
    t = IJTranslation(Element({I(-2): sc(2), J(1): sc(Fraction(-1, 3))}))
    gens = [Generator(fam, idx) for fam in "LHIJ" for idx in range(-4, 5)]
    gens += [C1, C2, C3]
    for _ in range(60):
        a = Element.single(gens[rng.randrange(len(gens))])
        b = Element.single(gens[rng.randrange(len(gens))])
        assert t.apply(bracket(a, b)) == bracket(t.apply(a), t.apply(b))


def test_ad_squared_vanishes():
    x = Element({I(-1): ONE, J(2): sc(-3)})
    for fam in "LHIJ":
        for idx in range(-4, 5):
            inner = bracket(x, Element.single(Generator(fam, idx)))
            assert bracket(x, inner) == Element.zero()


def test_verify_structure_report():
    report = verify_structure(2)
    assert report.ok
    assert report.antisymmetry_checked > 0
    assert report.jacobi_checked > 0


def test_generator_serialization():
    assert gen_str(L(5)) == "L[5]"
    assert gen_str(J(-3)) == "J[-3]"
    assert gen_str(C1) == "c1"
    assert parse_gen("L[5]") == L(5)
    assert parse_gen("c2") == C2
    with pytest.raises(ValueError):
        parse_gen("K[2]")


def test_element_json_round_trip():
    element = Element({L(2): sc(Fraction(1, 2)), C1: sc(0, 1), J(-1): sc(-3)})
    assert Element.from_json(element.to_json()) == element


@pytest.mark.parametrize(
    "data, name",
    [
        ({"L[1]": "1", " L[1]": "2"}, r"L\[1\]"),
        ({"c2": "0", "c2 ": "3"}, "c2"),
        ({"J[-1]": "5", "J[-1]\t": "0"}, r"J\[-1\]"),
    ],
)
def test_element_json_refuses_two_spellings_of_one_generator(data, name):
    with pytest.raises(ValueError, match=rf"^duplicate value for {name}$"):
        Element.from_json(data)


def test_generator_validation():
    with pytest.raises(ValueError, match="^L generators need an index$"):
        Generator("L")
    with pytest.raises(ValueError, match="^central generators carry no index$"):
        Generator("c1", 3)
    with pytest.raises(ValueError, match="^central generators carry no index$"):
        Generator("c2", True)


@pytest.mark.parametrize("index", [True, False, 1.5, 1.0, "1"])
def test_generator_refuses_an_index_that_is_no_int(index):
    # True == 1, so an interned L[True] would alias L[1]; "1" printed as
    # L[1] without being equal to it.
    with pytest.raises(ValueError, match="need an int index"):
        Generator("L", index)
    assert str(L(1)) == "L[1]"
    assert str(L(0)) == "L[0]"


_generator_args = st.one_of(
    st.tuples(st.sampled_from("LHIJ"), st.integers(-40, 40)),
    st.tuples(st.sampled_from(["c1", "c2", "c3"]), st.none()),
)
_OLD_RANK = {"J": 0, "I": 1, "H": 2, "L": 3, "c1": 4, "c2": 5, "c3": 6}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(_generator_args, max_size=12))
def test_generators_are_interned_values(args):
    gens = []
    for family, index in args:
        g = Generator(family, index)
        assert Generator(family, index) is g
        assert (g.family, g.index) == (family, index)
        assert copy.copy(g) is g
        assert copy.deepcopy(g) is g
        assert pickle.loads(pickle.dumps(g)) is g
        with pytest.raises(FrozenInstanceError):
            g.index = 0
        with pytest.raises(FrozenInstanceError):
            g.key = (0, 0)
        assert g.index == index
        gens.append(g)
    # The canonical order is the one the dataclass keys gave.
    old_key = lambda g: (_OLD_RANK[g.family], g.index or 0)  # noqa: E731
    assert sorted(gens, key=gen_key) == sorted(gens, key=old_key)
    assert [gen_key(g) for g in gens] == [old_key(g) for g in gens]


def test_generator_equality_and_hash_are_the_object_defaults():
    # Interning makes equal arguments one object, so nothing is computed
    # per comparison or per hash.
    assert Generator.__eq__ is object.__eq__
    assert Generator.__hash__ is object.__hash__
    assert L(2) == Generator("L", 2) and L(2) != H(2)
    assert C1.is_central and not L(0).is_central
    assert repr(J(-3)) == "J[-3]" and str(C3) == "c3"
