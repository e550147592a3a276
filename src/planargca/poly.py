"""Sparse exact polynomials in two commuting variables X and Y.

A polynomial is a ``LinearCombination`` of exponent pairs
``(x_exponent, y_exponent)``: sums, differences, negation and scaling are
the shared sparse-vector operations, and this module adds the product, the
exact shift ``p(X + dx, Y + dy)`` and the degree queries.  Coefficients are
Gaussian rationals, so all of it is exact.  There are no degree caps
anywhere: every operation returns the full result.

The JSON form is a list of ``{"xexp": a, "yexp": b, "coeff": "..."}`` records
sorted by exponent, one per monomial, with coefficients in the scalar string
form; exponents must be JSON integers, and a record with any other key, or a
second record for one monomial, is refused.
"""

from __future__ import annotations

from math import comb
from typing import Dict, Iterable, Tuple

from .scalars import (
    ONE,
    ZERO,
    LinearCombination,
    Scalar,
    read_scalar,
    scalar_pow,
)

__all__ = ["Poly", "X", "Y", "P_ONE", "P_ZERO"]

Exponent = Tuple[int, int]


class Poly(LinearCombination):
    """Bivariate polynomial over Gaussian rationals, stored sparsely.

    Unlike the other linear combinations in the package, polynomials are
    hashable: equal polynomials hash equally.
    """

    __slots__ = ()

    def __init__(self, terms: Dict[Exponent, Scalar] | None = None):
        cleaned: Dict[Exponent, Scalar] = {}
        for (a, b), coeff in (terms or {}).items():
            if a < 0 or b < 0:
                raise ValueError("exponents must be non-negative")
            if coeff:
                cleaned[(a, b)] = coeff
        self.terms = cleaned

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: Scalar | int) -> "Poly":
        value = value if isinstance(value, Scalar) else Scalar(value)
        return Poly({(0, 0): value})

    @staticmethod
    def monomial(xexp: int, yexp: int, coeff: Scalar = ONE) -> "Poly":
        return Poly({(xexp, yexp): coeff})

    # -- ring operations (sums and scaling come from LinearCombination) ----

    def __mul__(self, other: "Poly") -> "Poly":
        out: Dict[Exponent, Scalar] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                mono = (a1 + a2, b1 + b2)
                out[mono] = out.get(mono, ZERO) + c1 * c2
        return Poly(out)

    def shift(self, dx: Scalar, dy: Scalar) -> "Poly":
        """Return ``p(X + dx, Y + dy)`` expanded exactly.

        Uses the binomial theorem term by term; shifts by zero are free.
        """
        if not dx and not dy:
            return self
        out: Dict[Exponent, Scalar] = {}
        for (a, b), coeff in self.terms.items():
            xrow = [comb(a, i) * scalar_pow(dx, a - i) for i in range(a + 1)]
            yrow = [comb(b, j) * scalar_pow(dy, b - j) for j in range(b + 1)]
            for i, xc in enumerate(xrow):
                if not xc:
                    continue
                base = coeff * xc
                for j, yc in enumerate(yrow):
                    if not yc:
                        continue
                    mono = (i, j)
                    out[mono] = out.get(mono, ZERO) + base * yc
        return Poly(out)

    # -- inspection ----------------------------------------------------------

    def coeff(self, xexp: int, yexp: int) -> Scalar:
        return self.terms.get((xexp, yexp), ZERO)

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(a + b for a, b in self.terms)

    def x_degree(self) -> int:
        if not self.terms:
            return -1
        return max(a for a, _ in self.terms)

    def y_degree(self) -> int:
        if not self.terms:
            return -1
        return max(b for _, b in self.terms)

    def is_univariate_in_x(self) -> bool:
        return all(b == 0 for _, b in self.terms)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (a, b), coeff in sorted(self.terms.items()):
            vars_part = "".join(
                [f"X^{a}" if a > 1 else ("X" if a == 1 else ""),
                 f"Y^{b}" if b > 1 else ("Y" if b == 1 else "")]
            )
            text = f"({coeff})"
            pieces.append(f"{text}{vars_part}" if vars_part else text)
        return " + ".join(pieces)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list:
        return [
            {"xexp": a, "yexp": b, "coeff": str(coeff)}
            for (a, b), coeff in sorted(self.terms.items())
        ]

    @staticmethod
    def from_json(records: Iterable[dict]) -> "Poly":
        """Read the ``to_json`` form; a monomial given twice is refused."""
        terms: Dict[Exponent, Scalar] = {}
        for record in records:
            unknown = set(record) - {"xexp", "yexp", "coeff"}
            if unknown:
                raise ValueError(f"unknown keys {sorted(unknown)} in {record!r}")
            mono = (_exponent(record, "xexp"), _exponent(record, "yexp"))
            if mono in terms:
                raise ValueError(f"duplicate record for xexp {mono[0]}, yexp {mono[1]}")
            terms[mono] = read_scalar(record["coeff"], "coeff")
        return Poly(terms)


def _exponent(record: dict, key: str) -> int:
    """A JSON integer exponent; floats, booleans and strings are refused."""
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


P_ZERO = Poly()
P_ONE = Poly.constant(1)
X = Poly.monomial(1, 0)
Y = Poly.monomial(0, 1)
