"""Normal ordering in the universal enveloping algebra.

A canonical monomial lists its factors in the canonical generator order
(family rank J < I < H < L < c1 < c2 < c3, index ascending inside a family)
with equal factors merged into exponents.  Restricted to the I/J block,
which is abelian, these monomials coincide with the usual displayed words
J^j I^i; central generators commute past everything and sort last, kept as
exponents here (they only become scalars inside modules).

Straightening rewrites an arbitrary word into this basis by replacing an
adjacent out-of-order pair ``g h`` with ``h g + [g, h]``.  Every bracket
term is strictly shorter and every swap removes an inversion, so the
rewriting terminates; the normal form is unique, and the leftmost-pair
strategy is fixed so intermediate traces are reproducible (a rightmost
strategy exists purely to exercise confluence in tests).

An ``EnvelopingElement`` is a ``LinearCombination`` of canonical monomials,
so sums and scaling are the shared sparse-vector operations.  Straightening
accumulates finished monomials into one map, and ``multiply`` straightens
each concatenated pair of monomials and sums the results in one
``combine``.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Sequence, Tuple

from .algebra import Generator, bracket_basis, gen_key, gen_str, parse_gen
from .scalars import ONE, LinearCombination, Scalar, accumulate

__all__ = [
    "PBWMonomial",
    "MONOMIAL_ONE",
    "display_order",
    "EnvelopingElement",
    "straighten",
    "multiply",
]

Factors = Tuple[Tuple[Generator, int], ...]


class PBWMonomial:
    """An ordered product of generator powers in canonical order."""

    __slots__ = ("factors", "_hash")

    def __init__(self, factors: Iterable[Tuple[Generator, int]] = ()):
        factors = tuple(factors)
        previous = None
        for g, exp in factors:
            if exp <= 0:
                raise ValueError("exponents must be positive")
            key = gen_key(g)
            if previous is not None and key <= previous:
                raise ValueError("factors must strictly ascend in canonical order")
            previous = key
        self.factors: Factors = factors
        self._hash = hash(factors)

    @staticmethod
    def from_word(word: Sequence[Generator]) -> "PBWMonomial":
        """Aggregate an already-sorted word into a monomial."""
        factors: List[Tuple[Generator, int]] = []
        for g in word:
            if factors and factors[-1][0] == g:
                factors[-1] = (g, factors[-1][1] + 1)
            else:
                factors.append((g, 1))
        return PBWMonomial(factors)

    def word(self) -> Tuple[Generator, ...]:
        out: List[Generator] = []
        for g, exp in self.factors:
            out.extend([g] * exp)
        return tuple(out)

    def length(self) -> int:
        return sum(exp for _, exp in self.factors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PBWMonomial):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " ".join(
            gen_str(g) if exp == 1 else f"{gen_str(g)}^{exp}"
            for g, exp in self.factors
        )

    def __repr__(self) -> str:
        return f"PBWMonomial({str(self)})"

    @staticmethod
    def parse(text: str) -> "PBWMonomial":
        text = text.strip()
        if text in ("", "1"):
            return MONOMIAL_ONE
        factors: List[Tuple[Generator, int]] = []
        for piece in text.split():
            match = re.match(r"^(.*?)(?:\^(\d+))?$", piece)
            head, exp = match.groups()
            factors.append((parse_gen(head), int(exp) if exp else 1))
        return PBWMonomial(factors)


MONOMIAL_ONE = PBWMonomial()


def display_order(monomials: Iterable[PBWMonomial]) -> List[PBWMonomial]:
    """The order in which sums print their monomials: shortest first, then
    by the printed form."""
    return sorted(monomials, key=lambda m: (m.length(), str(m)))


class EnvelopingElement(LinearCombination):
    """Finite linear combination of canonical monomials."""

    __slots__ = ()

    @staticmethod
    def one() -> "EnvelopingElement":
        return EnvelopingElement({MONOMIAL_ONE: ONE})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[m]})*{m}" for m in display_order(self.terms))


def _find_inversion(word: Tuple[Generator, ...], strategy: str) -> int | None:
    positions = range(len(word) - 1)
    if strategy == "rightmost":
        positions = reversed(positions)
    elif strategy != "leftmost":
        raise ValueError(f"unknown strategy {strategy!r}")
    for i in positions:
        if gen_key(word[i]) > gen_key(word[i + 1]):
            return i
    return None


def straighten(
    word: Sequence[Generator], strategy: str = "leftmost"
) -> EnvelopingElement:
    """Rewrite a word of generators into the canonical PBW basis."""
    out: Dict[PBWMonomial, Scalar] = {}
    stack: List[Tuple[Scalar, Tuple[Generator, ...]]] = [(ONE, tuple(word))]
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


def multiply(
    u: EnvelopingElement, v: EnvelopingElement
) -> EnvelopingElement:
    """Product in the enveloping algebra: concatenate, then straighten."""
    return EnvelopingElement.combine(
        (coeff_u * coeff_v, straighten(mono_u.word() + mono_v.word()))
        for mono_u, coeff_u in u.terms.items()
        for mono_v, coeff_v in v.terms.items()
    )
