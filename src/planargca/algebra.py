"""The centrally extended planar Galilean conformal algebra.

Basis: ``L_n, H_n, I_n, J_n`` for all integers ``n`` plus three central
elements ``c1, c2, c3``.  The nonzero brackets are

    [L_m, L_n] = (n - m) L_{m+n} + (m^3 - m)/12 * delta_{m+n,0} * c1
    [L_m, H_n] = n H_{m+n} + m^2 * delta_{m+n,0} * c2
    [H_m, H_n] = m * delta_{m+n,0} * c3
    [L_m, I_n] = (n - m) I_{m+n}        [L_m, J_n] = (n - m) J_{m+n}
    [H_m, I_n] = I_{m+n}                [H_m, J_n] = -J_{m+n}

and every other basis bracket vanishes (in particular the I/J span is
abelian and commutes with itself, and the c_i are central).  The table is
closed under antisymmetry automatically.  Note (m^3 - m)/12 is a genuine
rational, not always an integer.

The algebra is Z-graded by the generator index (centrals sit in degree 0).

Canonical generator order, shared with the enveloping-algebra module:
family rank J < I < H < L < c1 < c2 < c3, and ascending index inside a
family.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .scalars import ONE, ZERO, LinearCombination, Scalar, read_scalar

__all__ = [
    "Generator",
    "L",
    "H",
    "I",
    "J",
    "C1",
    "C2",
    "C3",
    "CENTRALS",
    "gen_key",
    "generators_up_to",
    "gen_str",
    "parse_gen",
    "Element",
    "bracket_basis",
    "bracket",
    "grade",
    "IJTranslation",
    "InvalidTranslation",
    "StructureReport",
    "verify_jacobi",
    "verify_structure",
]


class Generator:
    """One basis generator: an indexed family member or a central element.

    Generators are interned: ``Generator(family, index)`` returns the one
    object stored for that pair, so equality is identity and the hash is
    the object's default one.  ``key`` is the canonical sort key (see
    ``gen_key``), computed once.  Attributes cannot be assigned.
    """

    __slots__ = ("family", "index", "key")

    family: str
    index: Optional[int]
    key: Tuple[int, int]

    def __new__(cls, family: str, index: Optional[int] = None) -> "Generator":
        if family in ("L", "H", "I", "J"):
            if index is None:
                raise ValueError(f"{family} generators need an index")
            if type(index) is not int:
                raise ValueError(
                    f"{family} generators need an int index, not {index!r}"
                )
        elif family in ("c1", "c2", "c3"):
            if index is not None:
                raise ValueError("central generators carry no index")
        else:
            raise ValueError(f"unknown family {family!r}")
        found = _INTERNED.get((family, index))
        if found is not None:
            return found
        g = object.__new__(cls)
        object.__setattr__(g, "family", family)
        object.__setattr__(g, "index", index)
        object.__setattr__(g, "key", (_FAMILY_RANK[family], index or 0))
        # setdefault, so a second construction racing this one still
        # returns the stored object.
        return _INTERNED.setdefault((family, index), g)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Generator, (self.family, self.index))

    @property
    def is_central(self) -> bool:
        return self.index is None

    def __str__(self) -> str:
        return gen_str(self)

    def __repr__(self) -> str:
        return gen_str(self)


_FAMILY_RANK = {"J": 0, "I": 1, "H": 2, "L": 3, "c1": 4, "c2": 5, "c3": 6}
# Every generator built so far, under its (family, index).
_INTERNED: Dict[Tuple[str, Optional[int]], Generator] = {}


def L(n: int) -> Generator:
    return Generator("L", n)


def H(n: int) -> Generator:
    return Generator("H", n)


def I(n: int) -> Generator:  # noqa: E743 - named after the generator family
    return Generator("I", n)


def J(n: int) -> Generator:
    return Generator("J", n)


C1 = Generator("c1")
C2 = Generator("c2")
C3 = Generator("c3")
CENTRALS = (C1, C2, C3)


def gen_key(g: Generator) -> Tuple[int, int]:
    """Canonical sort key: family rank, then index ascending."""
    return g.key


def gen_str(g: Generator) -> str:
    if g.is_central:
        return g.family
    return f"{g.family}[{g.index}]"


_GEN_RE = re.compile(r"^([LHIJ])\[(-?\d+)\]$|^(c[123])$")


def parse_gen(text: str) -> Generator:
    match = _GEN_RE.match(text.strip())
    if match is None:
        raise ValueError(f"malformed generator {text!r}")
    family, index, central = match.groups()
    if central:
        return Generator(central)
    return Generator(family, int(index))


class Element(LinearCombination):
    """Finite linear combination of generators with scalar coefficients."""

    __slots__ = ()

    def coeff(self, g: Generator) -> Scalar:
        return self.terms.get(g, ZERO)

    def support(self) -> List[Generator]:
        return sorted(self.terms, key=gen_key)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({self.terms[g]})*{gen_str(g)}" for g in self.support()
        )

    def to_json(self) -> Dict[str, str]:
        return {gen_str(g): str(self.terms[g]) for g in self.support()}

    @staticmethod
    def from_json(data: Dict[str, str]) -> "Element":
        """Read the ``to_json`` form; two spellings of one generator are
        refused, even when one of them carries a zero."""
        terms: Dict[Generator, Scalar] = {}
        for key, value in data.items():
            g = parse_gen(key)
            if g in terms:
                raise ValueError(f"duplicate value for {gen_str(g)}")
            terms[g] = read_scalar(value, f"the value of {key}")
        return Element(terms)


# Orientation used by the bracket table below; unrelated to the PBW order.
_TABLE_RANK = {"L": 0, "H": 1, "I": 2, "J": 3}


@functools.lru_cache(maxsize=1 << 14)
def bracket_basis(g1: Generator, g2: Generator) -> Element:
    """Structure-constant bracket of two basis generators.

    Results are cached (a weight-6 search at (m, n) = (2, 2) touches about
    1.8k pairs, a Jacobi sweep to index 6 about 5.6k), so the returned
    ``Element`` is shared between callers and must not be mutated.
    """
    if g1.is_central or g2.is_central:
        return Element.zero()
    flipped = _TABLE_RANK[g1.family] > _TABLE_RANK[g2.family]
    if flipped:
        g1, g2 = g2, g1
    m, n = g1.index, g2.index
    fams = (g1.family, g2.family)
    out: Dict[Generator, Scalar] = {}
    if fams == ("L", "L"):
        if n != m:
            out[L(m + n)] = Scalar(n - m)
        if m + n == 0:
            central = Scalar(Fraction(m**3 - m, 12))
            if central:
                out[C1] = central
    elif fams == ("L", "H"):
        if n != 0:
            out[H(m + n)] = Scalar(n)
        if m + n == 0 and m != 0:
            out[C2] = Scalar(m * m)
    elif fams == ("L", "I"):
        if n != m:
            out[I(m + n)] = Scalar(n - m)
    elif fams == ("L", "J"):
        if n != m:
            out[J(m + n)] = Scalar(n - m)
    elif fams == ("H", "H"):
        if m + n == 0 and m != 0:
            out[C3] = Scalar(m)
    elif fams == ("H", "I"):
        out[I(m + n)] = ONE
    elif fams == ("H", "J"):
        out[J(m + n)] = -ONE
    # ("I", "I"), ("I", "J"), ("J", "J") all vanish.
    return -Element(out) if flipped else Element(out)


def bracket(x: Element, y: Element) -> Element:
    """Bilinear extension of the basis bracket."""
    return Element.combine(
        (c1 * c2, bracket_basis(g1, g2))
        for g1, c1 in x.terms.items()
        for g2, c2 in y.terms.items()
    )


def grade(g: Generator) -> int:
    """Degree in the Z-grading: the index, with centrals in degree 0."""
    return 0 if g.is_central else g.index


class InvalidTranslation(ValueError):
    """The translating element must be supported on I and J generators."""


class IJTranslation:
    """The automorphism ``y -> y + [x, y]`` for x in the I/J span.

    The I/J span is an abelian ideal whose bracket with itself vanishes, so
    ad_x squares to zero on the whole algebra and ``1 + ad_x`` really is
    ``exp(ad_x)``, hence an automorphism.
    """

    __slots__ = ("element",)

    def __init__(self, element: Element):
        for g in element.terms:
            if g.family not in ("I", "J"):
                raise InvalidTranslation(
                    f"translation support must lie in the I/J span, got {g}"
                )
        self.element = element

    def apply(self, y: Element | Generator) -> Element:
        if isinstance(y, Generator):
            y = Element.single(y)
        return y + bracket(self.element, y)

    def __repr__(self) -> str:
        return f"IJTranslation({self.element})"


@dataclass
class StructureReport:
    """Outcome of the exhaustive structure-constant checks."""

    index_bound: int
    antisymmetry_checked: int = 0
    jacobi_checked: int = 0
    grading_checked: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def generators_up_to(index_bound: int) -> List[Generator]:
    """L, H, I, J at every index of magnitude up to the bound, then c1..c3."""
    gens: List[Generator] = []
    for fam in ("L", "H", "I", "J"):
        for idx in range(-index_bound, index_bound + 1):
            gens.append(Generator(fam, idx))
    gens.extend(CENTRALS)
    return gens


def verify_jacobi(index_bound: int) -> StructureReport:
    """Check the Jacobi identity on all generator triples up to the bound.

    For each triple (a, b, c) the identity is one sum that must vanish,

        sum over (x, y, z) in {(a, b, c), (b, c, a), (c, a, b)}
            of sum over g of [y, z]_g * [x, g],

    with [y, z]_g the coefficient of g in ``bracket_basis(y, z)``: one
    ``Element.combine`` over the cyclic triples and the terms of each inner
    bracket.
    """
    report = StructureReport(index_bound=index_bound)
    gens = generators_up_to(index_bound)
    for a, b, c in itertools.combinations_with_replacement(gens, 3):
        total = Element.combine(
            (coeff, bracket_basis(x, g))
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b))
            for g, coeff in bracket_basis(y, z).terms.items()
        )
        report.jacobi_checked += 1
        if total:
            report.violations.append(f"jacobi({a},{b},{c}) = {total}")
    return report


def verify_structure(index_bound: int) -> StructureReport:
    """Antisymmetry, Jacobi, and grading checks in one exhaustive pass."""
    report = verify_jacobi(index_bound)
    gens = generators_up_to(index_bound)
    for a, b in itertools.combinations_with_replacement(gens, 2):
        forward = bracket_basis(a, b)
        backward = bracket_basis(b, a)
        report.antisymmetry_checked += 1
        if forward + backward:
            report.violations.append(f"antisymmetry({a},{b})")
        expected = grade(a) + grade(b)
        report.grading_checked += 1
        for g in forward.terms:
            if not g.is_central and grade(g) != expected:
                report.violations.append(f"grading([{a},{b}] -> {g})")
    return report
