from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from planargca import ideal
from planargca.linalg import SparseEchelon
from planargca.scalars import sc


def poly(*terms):
    """``{(a, b): Fraction(c)}`` from ``(c, a, b)`` triples."""
    return {(a, b): Fraction(c) for c, a, b in terms}


def groebner(generators):
    """The reduced basis of the ideal of ``generators``, one at a time."""
    basis = []
    for f in generators:
        r = ideal.normal_form(f, basis)
        if r:
            basis = ideal.extend(basis, r)
    return basis


def test_grevlex_orders_by_degree_then_x_degree():
    monomials = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3)]
    assert sorted(reversed(monomials), key=ideal.grevlex) == monomials
    assert ideal.leading(poly((1, 0, 2), (1, 1, 1), (1, 2, 0), (1, 0, 1))) == (2, 0)


def test_a_zero_dimensional_ideal():
    # (X^2 - Y, XY - 1): S = Y (X^2 - Y) - X (XY - 1) = X - Y^2 adds Y^2 - X;
    # the quotient has basis 1, X, Y (the three points with X^3 = 1, Y = X^2).
    basis = groebner([poly((1, 2, 0), (-1, 0, 1)), poly((1, 1, 1), (-1, 0, 0))])
    assert basis == [
        poly((1, 0, 2), (-1, 1, 0)),
        poly((1, 1, 1), (-1, 0, 0)),
        poly((1, 2, 0), (-1, 0, 1)),
    ]
    assert ideal.is_groebner(basis)
    assert ideal.dimension_by_degree(basis, 4) == [0, 0, 3, 7, 12]
    assert ideal.normal_form(poly((1, 3, 0)), basis) == poly((1, 0, 0))


def test_the_unit_ideal_and_a_principal_one():
    assert groebner([poly((2, 1, 0), (1, 0, 0)), poly((1, 1, 0))]) == [poly((1, 0, 0))]
    assert ideal.dimension_by_degree([poly((1, 0, 0))], 2) == [1, 3, 6]
    principal = groebner([poly((3, 1, 1), (-3, 0, 0))])
    assert principal == [poly((1, 1, 1), (-1, 0, 0))]
    assert ideal.dimension_by_degree(principal, 3) == [0, 0, 1, 3]


def test_gaussian_rational_coefficients():
    # (i X - Y) and (X + i Y) are the same ideal: X - (-i) Y, made monic.
    basis = groebner([{(1, 0): sc(0, 1), (0, 1): sc(-1)}])
    assert basis == groebner([{(1, 0): sc(1), (0, 1): sc(0, 1)}])
    assert basis == [{(1, 0): sc(1), (0, 1): sc(0, 1)}]


def test_reduced_basis_drops_redundant_elements_and_reduces_tails():
    # {X^2, X^2 + X Y, X Y} is a Gröbner basis of (X^2, X Y) with a
    # repeated leading monomial and an unreduced tail.
    assert ideal.reduced_basis(
        [poly((1, 2, 0)), poly((1, 2, 0), (1, 1, 1)), poly((1, 1, 1))]
    ) == [poly((1, 1, 1)), poly((1, 2, 0))]
    assert not ideal.is_groebner([poly((1, 1, 0)), poly((1, 1, 0), (1, 0, 1))])


def multiples_dimension(basis, degree):
    span = SparseEchelon()
    for g in basis:
        top = max(sum(mono) for mono in g)
        for d in range(degree - top + 1):
            for a in range(d + 1):
                span.insert({
                    (-(x + a) - (y + d - a), x + a): sc(c) for (x, y), c in g.items()
                })
    return span.dimension


@st.composite
def polynomials(draw):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        min_size=1, max_size=4,
    ))
    return {mono: c for mono, c in terms.items() if c} or {(0, 1): Fraction(1)}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(polynomials(), min_size=1, max_size=3))
def test_extend_gives_the_reduced_groebner_basis(generators):
    # Every generator reduces to 0; the basis is monic, reduced and a
    # Gröbner basis, by S-polynomials and, independently, by linear
    # algebra: its multiples of degree at most k span a space of the
    # dimension that ``dimension_by_degree`` counts off the leading
    # monomials.  The basis does not depend on the order of the generators.
    basis = groebner(generators)
    assert all(not ideal.normal_form(f, basis) for f in generators)
    assert ideal.is_groebner(basis)
    leads = [ideal.leading(g) for g in basis]
    assert leads == sorted(leads, key=ideal.grevlex)
    for g, lead in zip(basis, leads):
        assert g[lead] == 1
        assert not any(
            other != lead and other[0] <= a and other[1] <= b
            for (a, b) in g for other in leads
        )
    by_degree = ideal.dimension_by_degree(basis, 8)
    assert [multiples_dimension(basis, k) for k in range(9)] == by_degree
    assert groebner(list(reversed(generators))) == basis
