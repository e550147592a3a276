"""Normal ordering in the universal enveloping algebra, and the one left
action that does it.

A canonical monomial lists its factors in the canonical generator order
(family rank J < I < H < L < c1 < c2 < c3, index ascending inside a family)
with equal factors merged into exponents.  Restricted to the I/J block,
which is abelian, these monomials coincide with the usual displayed words
J^j I^i; central generators commute past everything and sort last, kept as
exponents here (they only become scalars inside modules).

The public constructor ``PBWMonomial(factors)`` checks that the factors
strictly ascend in that order with exponents that are positive ints (not
bools or floats), because its factors come from callers and configs.  The
action builds its own monomials with ``PBWMonomial._ordered``, which skips
the check: they are canonical by how they are built.  ``_prepend`` puts in
front a generator that sorts at or before the first factor, merging it into
that factor when equal, and ``_expand``'s ``rest`` lowers the first
factor's power by one, dropping it at zero.

Monomials are hash-consed: both constructors return the one live monomial
of a factor tuple, so equality is identity and the hash is the object's
default one, and the memo and row tables key on them in C.  Copying and
unpickling return that same object.  The intern table ``_MONOMIALS`` holds
each monomial through a weak reference whose callback drops the entry when
the monomial dies, so the table keeps nothing alive: it shrinks back when a
memo is dropped.  A monomial caches its ``rest`` on itself, built once
rather than by every ``_expand`` that needs it.  That reference points to
a shorter monomial, so the references between monomials form no cycle and
reference counting frees them.  A cache of ``_prepend``'s results on the
shorter monomial would point back up and make cycles, so there is none.

The engine is the left action of a generator on the PBW basis of an
induced module U(G) (x)_{U(b)} C_psi, whose basis is the monomials in the
generators outside b ("free").  Writing a basis monomial as ``x u``, a
free ``g`` sorting at or before ``x`` is prepended, a ``g`` of b that is
central or meets the cyclic vector itself evaluates to psi(g), and
otherwise ``g . x u = x . (g . u) + [g, x] . u``.  Every recursive image is
of a monomial shorter than ``x u``, except x acting on the leading term of
``g . u``, which takes x in front at once; so the recursion terminates.
It runs on an explicit stack, so the length of a monomial is not limited
by Python's recursion limit.  Images are memoized per generator, then per
monomial, within one ``_LeftAction``, its memo scope.  The Whittaker
modules (``whittaker``) are one datum for it.

The enveloping algebra itself is the module induced from b = 0: every
generator is free and psi is never read.  So ``straighten`` and
``multiply`` run the same action, each under one memo that it drops on
return.  ``straighten`` has two association orders, two genuinely
different rewriting paths to the one normal form: ``"leftmost"`` lets the
word act on 1, g1 (g2 (... gk)), and ``"rightmost"`` multiplies it in
from the left, ((g1 g2) g3) ..., through ``multiply``'s product.  That
every word gives the same result both ways is checked as confluence.

An ``EnvelopingElement`` is a ``LinearCombination`` of canonical monomials,
so sums and scaling are the shared sparse-vector operations.
"""

from __future__ import annotations

import re
import typing
import weakref
from collections import defaultdict
from typing import DefaultDict, Dict, Iterable, List, Optional, Sequence, Tuple

from .algebra import Generator, bracket_basis, gen_key, gen_str, parse_gen
from .scalars import ONE, Combination, LinearCombination, Scalar, accumulate

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
    """An ordered product of generator powers in canonical order.

    Monomials are interned (see the module docstring), so equality is
    identity and the hash is the object's default one.  ``rest`` is
    ``_expand``'s suffix, ``None`` until it is first needed.
    """

    __slots__ = ("factors", "rest", "__weakref__")

    factors: Factors
    rest: Optional["PBWMonomial"]

    def __new__(cls, factors: Iterable[Tuple[Generator, int]] = ()) -> "PBWMonomial":
        factors = tuple(factors)
        previous = None
        for g, exp in factors:
            if type(exp) is not int or exp <= 0:
                raise ValueError(f"exponents must be positive ints, not {exp!r}")
            key = gen_key(g)
            if previous is not None and key <= previous:
                raise ValueError("factors must strictly ascend in canonical order")
            previous = key
        return PBWMonomial._ordered(factors)

    @staticmethod
    def _ordered(factors: Factors) -> "PBWMonomial":
        """The monomial of ``factors`` known to be canonical, unchecked (see
        the module docstring)."""
        ref = _MONOMIALS.get(factors)
        if ref is not None:
            mono = ref()
            if mono is not None:
                return mono
        mono = object.__new__(PBWMonomial)
        mono.factors = factors
        mono.rest = None
        _MONOMIALS[factors] = weakref.KeyedRef(mono, _forget, factors)
        return mono

    def __reduce__(self):
        return (PBWMonomial, (self.factors,))

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


# The live monomials, under their factors; an entry goes when its monomial
# dies, so the table never keeps a monomial alive.
_MONOMIALS: Dict[Factors, weakref.KeyedRef] = {}


def _forget(ref: weakref.KeyedRef) -> None:
    """Drop a dead monomial's entry, unless another has taken its place."""
    if _MONOMIALS.get(ref.key) is ref:
        del _MONOMIALS[ref.key]


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


Terms = Dict[PBWMonomial, Scalar]
# A memoized image: its (monomial, coefficient) pairs, ``()`` for zero.
Image = Tuple[Tuple[PBWMonomial, Scalar], ...]


def _prepend(g: Generator, mono: PBWMonomial) -> PBWMonomial:
    """``g * mono`` for a generator sorting at or before the first factor."""
    factors = mono.factors
    if factors and factors[0][0] == g:
        return PBWMonomial._ordered(((g, factors[0][1] + 1),) + factors[1:])
    return PBWMonomial._ordered(((g, 1),) + factors)


class _LeftAction:
    """Generator images of free PBW monomials, memoized per generator, then
    per monomial.

    ``datum`` answers ``is_free(g)``, and ``psi(g)`` for the generators
    that are not free.  One instance is one memo scope (see the module
    docstring).  Memoized images are tuples, so every caller can share them.
    """

    __slots__ = ("datum", "memo")

    def __init__(self, datum):
        self.datum = datum
        self.memo: DefaultDict[Generator, Dict[PBWMonomial, Image]] = defaultdict(dict)

    def image(self, g: Generator, mono: PBWMonomial) -> Image:
        """``g . mono . w`` for a monomial in the free generators.

        Each image that is not a leaf is computed by a generator frame,
        which yields every key it needs that is not yet memoized and is
        sent its image.  The frames sit on an explicit stack, so the depth
        of the recursion never reaches Python's stack.
        """
        table = self.memo[g]
        found = table.get(mono)
        if found is not None:
            return found
        found = self._leaf(g, mono)
        if found is not None:
            table[mono] = found
            return found
        keys = [(table, mono)]
        frames = [self._expand(g, mono)]
        found = None
        while frames:
            try:
                g, mono = frames[-1].send(found)
            except StopIteration as done:
                table, mono = keys.pop()
                found = table[mono] = done.value
                frames.pop()
                continue
            found = self._leaf(g, mono)
            if found is not None:
                self.memo[g][mono] = found
            else:
                keys.append((self.memo[g], mono))
                frames.append(self._expand(g, mono))
        return found

    def _leaf(self, g: Generator, mono: PBWMonomial) -> Optional[Image]:
        """The image when it needs no other image, else ``None``."""
        datum = self.datum
        factors = mono.factors
        if not datum.is_free(g):
            if g.is_central or not factors:
                value = datum.psi(g)
                return ((mono, value),) if value else ()
        elif not factors or g.key <= factors[0][0].key:
            return ((_prepend(g, mono), ONE),)
        return None

    def _expand(
        self, g: Generator, mono: PBWMonomial
    ) -> typing.Generator[Tuple[Generator, PBWMonomial], Image, Image]:
        """``g . x u = x . (g . u) + [g, x] . u`` for a non-leaf image."""
        factors = mono.factors
        x, exp = factors[0]
        rest = mono.rest
        if rest is None:
            rest = mono.rest = PBWMonomial._ordered(
                ((x, exp - 1),) + factors[1:] if exp > 1 else factors[1:]
            )
        out: Terms = {}
        head = self.memo[g].get(rest)
        if head is None:
            head = yield (g, rest)
        x_table = self.memo[x]
        for term, coeff in head:
            found = x_table.get(term)
            if found is None:
                found = yield (x, term)
            # x . term is most often x prepended, with factor ONE; keeping
            # coeff itself shares it instead of storing an equal copy.
            for result, factor in found:
                accumulate(out, result, coeff if factor is ONE else coeff * factor)
        for h, coeff in bracket_basis(g, x).terms.items():
            found = self.memo[h].get(rest)
            if found is None:
                found = yield (h, rest)
            for result, factor in found:
                accumulate(out, result, coeff * factor)
        return tuple(out.items())

    def _apply(self, g: Generator, terms: Terms, out: Terms) -> Terms:
        """Accumulate ``g`` applied to free-basis ``terms`` into ``out``."""
        for mono, coeff in terms.items():
            for term, factor in self.image(g, mono):
                accumulate(out, term, coeff if factor is ONE else coeff * factor)
        return out

    def apply_word(self, word: Sequence[Generator], terms: Terms) -> Terms:
        """The word applied to free-basis ``terms``, right to left."""
        for g in reversed(word):
            terms = self._apply(g, terms, {})
        return terms

    def _normal_form(self, mono: PBWMonomial, coeff: Scalar) -> Terms:
        """``coeff * mono . w`` on the free basis, for any monomial.

        Vectors read from configs may carry subalgebra or central factors;
        those are applied to the cyclic vector right to left first.
        """
        if all(self.datum.is_free(g) for g, _ in mono.factors):
            return {mono: coeff}
        return self.apply_word(mono.word(), {MONOMIAL_ONE: coeff})

    def act(self, g: Generator, v: Combination) -> Combination:
        out: Terms = {}
        for mono, coeff in v.terms.items():
            self._apply(g, self._normal_form(mono, coeff), out)
        return type(v)(out)

    def shifted(self, g: Generator, v: Combination) -> Combination:
        return self.act(g, v) - v.scale(self.datum.psi(g))


class _Free:
    """The datum of the enveloping algebra, induced from the zero
    subalgebra: every generator is free, so ``psi`` is never read."""

    __slots__ = ()

    def is_free(self, g: Generator) -> bool:
        return True


def _product(action: _LeftAction, u: Terms, v: Terms) -> Terms:
    """``u * v``: each monomial of ``u`` acts on ``v`` as its word."""
    out: Terms = {}
    for mono, coeff in u.items():
        for term, factor in action.apply_word(mono.word(), v).items():
            accumulate(out, term, factor if coeff is ONE else coeff * factor)
    return out


def straighten(
    word: Sequence[Generator], strategy: str = "leftmost"
) -> EnvelopingElement:
    """Rewrite a word of generators into the canonical PBW basis.

    ``strategy`` names the association order (see the module docstring):
    ``"leftmost"`` acts with the word on 1, ``"rightmost"`` multiplies it
    in from the left.
    """
    action = _LeftAction(_Free())
    if strategy == "leftmost":
        return EnvelopingElement(action.apply_word(word, {MONOMIAL_ONE: ONE}))
    if strategy != "rightmost":
        raise ValueError(f"unknown strategy {strategy!r}")
    terms: Terms = {MONOMIAL_ONE: ONE}
    for g in word:
        terms = _product(action, terms, {PBWMonomial(((g, 1),)): ONE})
    return EnvelopingElement(terms)


def multiply(
    u: EnvelopingElement, v: EnvelopingElement
) -> EnvelopingElement:
    """Product in the enveloping algebra (one memo per call)."""
    return EnvelopingElement(_product(_LeftAction(_Free()), u.terms, v.terms))
