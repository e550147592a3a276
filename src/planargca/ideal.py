"""Ideals of the polynomial ring in X and Y over an exact field.

A commutative, bivariate Gröbner engine (Buchberger 1965) with no
dependency: a polynomial is a dict mapping the exponents ``(a, b)`` of
X^a Y^b to nonzero coefficients from any exact field whose elements
support ``+``, ``-``, ``*``, ``1 / c`` and truth testing (``Scalar`` in
this package, ``Fraction`` as well).

The monomial order is grevlex with X > Y: higher total degree first, then
higher X-degree (with two variables grevlex and deglex agree).  It is
degree-compatible, so a Gröbner basis of an ideal I gives dim(I ∩ P≤k),
for P≤k the polynomials of total degree at most k, as the number of
monomials of degree at most k that some leading monomial divides
(``dimension_by_degree``).  Every polynomial that leaves this module is
monic, so the reduced basis of an ideal is unique.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Tuple

__all__ = [
    "grevlex",
    "leading",
    "normal_form",
    "s_polynomial",
    "extend",
    "reduced_basis",
    "is_groebner",
    "dimension_by_degree",
]

Monomial = Tuple[int, int]
Polynomial = Dict[Monomial, object]


def grevlex(mono: Monomial) -> Tuple[int, int]:
    """Sort key of X^a Y^b: total degree, then X-degree."""
    return mono[0] + mono[1], mono[0]


def leading(f: Polynomial) -> Monomial:
    return max(f, key=grevlex)


def _divides(lead: Monomial, mono: Monomial) -> bool:
    return lead[0] <= mono[0] and lead[1] <= mono[1]


def _subtract(f: Polynomial, c, shift: Monomial, g: Polynomial) -> None:
    """``f <- f - c X^da Y^db g`` in place for shift (da, db), dropping
    the terms that cancel."""
    da, db = shift
    for (a, b), coeff in g.items():
        mono = (a + da, b + db)
        value = f[mono] - c * coeff if mono in f else -(c * coeff)
        if value:
            f[mono] = value
        else:
            del f[mono]


def normal_form(f: Polynomial, basis: List[Polynomial]) -> Polynomial:
    """The monic remainder of ``f`` modulo the monic ``basis``, or ``{}``.

    No monomial of the remainder is divisible by a leading monomial of
    ``basis``.  Modulo a Gröbner basis the remainder is ``{}`` exactly when
    f lies in the ideal; modulo ``[]`` it is f over its leading coefficient.
    """
    leads = [(leading(g), g) for g in basis]
    work = {mono: c for mono, c in f.items() if c}
    remainder = {}
    while work:
        mono = leading(work)
        lead, g = next(((lead, g) for lead, g in leads if _divides(lead, mono)), (None, None))
        if g is None:
            remainder[mono] = work.pop(mono)
        else:
            _subtract(work, work[mono], (mono[0] - lead[0], mono[1] - lead[1]), g)
    if not remainder:
        return {}
    inverse = 1 / remainder[leading(remainder)]
    return {mono: c * inverse for mono, c in remainder.items()}


def s_polynomial(g: Polynomial, h: Polynomial) -> Polynomial:
    """X^.. g - X^.. h for monic g and h, cancelling the lcm of their
    leading monomials."""
    (ga, gb), (ha, hb) = leading(g), leading(h)
    a, b = max(ga, ha), max(gb, hb)
    s = {(m[0] + a - ga, m[1] + b - gb): c for m, c in g.items()}
    _subtract(s, 1, (a - ha, b - hb), h)
    return s


def extend(basis: List[Polynomial], r: Polynomial) -> List[Polynomial]:
    """The reduced Gröbner basis of the ideal of ``basis`` and ``r``.

    ``basis`` must be a monic Gröbner basis and ``r`` a nonzero
    ``normal_form`` modulo it.  Buchberger's algorithm: each new element
    pairs with every element before it, and the nonzero remainder of each
    S-polynomial is a new element.  A pair whose leading monomials are
    coprime is skipped, since its S-polynomial reduces to 0 (Buchberger's
    first criterion).
    """
    basis, pairs = list(basis), []
    while r or pairs:
        if r:
            (ra, rb) = leading(r)
            pairs.extend(
                (g, r) for g in basis
                if min(leading(g)[0], ra) or min(leading(g)[1], rb)
            )
            basis.append(r)
        r = normal_form(s_polynomial(*pairs.pop()), basis) if pairs else {}
    return reduced_basis(basis)


def reduced_basis(basis: List[Polynomial]) -> List[Polynomial]:
    """The reduced basis of the ideal of a monic Gröbner ``basis``, in
    ascending order of leading monomials.

    An element whose leading monomial that of an earlier one divides is
    dropped; each element left keeps its leading monomial, which no other
    leading monomial divides, and has its other terms reduced modulo the
    rest.
    """
    minimal: List[Polynomial] = []
    for g in sorted(basis, key=lambda g: grevlex(leading(g))):
        if not any(_divides(leading(h), leading(g)) for h in minimal):
            minimal.append(g)
    return [normal_form(g, [h for h in minimal if h is not g]) for g in minimal]


def is_groebner(basis: List[Polynomial]) -> bool:
    """Every S-polynomial of two elements of the monic ``basis`` reduces to
    0 modulo it."""
    return not any(
        normal_form(s_polynomial(g, h), basis)
        for i, g in enumerate(basis) for h in basis[i + 1:]
    )


def dimension_by_degree(basis: List[Polynomial], cap: int) -> List[int]:
    """dim(I ∩ P≤k) for k = 0..cap, for a Gröbner ``basis`` of I: the
    monomials of degree at most k that some leading monomial divides."""
    leads = [leading(g) for g in basis]
    return list(accumulate(
        sum(any(_divides(lead, (a, d - a)) for lead in leads) for a in range(d + 1))
        for d in range(cap + 1)
    ))
