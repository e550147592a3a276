"""Seeded random generators for property checks.

Everything here is driven by an explicit ``random.Random`` instance so a
campaign with a fixed seed reproduces byte-identical reports.  Values are
kept small: exact arithmetic never loses precision, but compact fractions
keep the checks fast.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

from .algebra import CENTRALS, Generator
from .pbw import PBWMonomial
from .poly import Poly
from .scalars import Scalar
from .whittaker import _BLOCKS, ModuleVector, WhittakerDatum, block_length

__all__ = [
    "random_scalar",
    "random_nonzero_scalar",
    "random_poly",
    "random_block_vector",
    "random_generator",
    "random_word",
]


def random_scalar(rng: random.Random) -> Scalar:
    """A small real rational."""
    return Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def random_nonzero_scalar(rng: random.Random) -> Scalar:
    while True:
        value = random_scalar(rng)
        if value:
            return value


def random_poly(
    rng: random.Random,
    max_degree: int,
    zero_constant_term: bool = False,
) -> Poly:
    """Nonzero polynomial of bounded total degree with small coefficients."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            a = rng.randint(0, max_degree)
            b = rng.randint(0, max_degree - a)
            terms[(a, b)] = random_scalar(rng)
        if zero_constant_term:
            terms.pop((0, 0), None)
        candidate = Poly(terms)
        if candidate:
            return candidate


def random_generator(rng: random.Random, index_bound: int) -> Generator:
    """A central with probability 0.1, else an indexed generator."""
    families = ["L", "H", "I", "J"]
    if rng.random() < 0.1:
        return CENTRALS[rng.randint(0, 2)]
    family = families[rng.randint(0, 3)]
    return Generator(family, rng.randint(-index_bound, index_bound))


def random_word(
    rng: random.Random, max_length: int, index_bound: int
) -> List[Generator]:
    length = rng.randint(0, max_length)
    return [
        random_generator(rng, index_bound) for _ in range(length)
    ]


def random_block_vector(
    rng: random.Random,
    datum: WhittakerDatum,
    block: str,
    max_exponent: int = 2,
) -> ModuleVector:
    """Nonzero vector of one to three terms on one two-family block, never
    pure-cyclic."""
    length = block_length(datum, block)
    if length < 1:
        raise ValueError("block is empty for this datum")
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            factors: List[Tuple[Generator, int]] = []
            for family in _BLOCKS[block]:
                for idx in range(length):
                    exp = rng.randint(0, max_exponent)
                    if exp:
                        factors.append((Generator(family, idx), exp))
            mono = PBWMonomial(tuple(factors))
            terms[mono] = random_nonzero_scalar(rng)
        vector = ModuleVector(terms)
        if vector and set(vector.terms) != {PBWMonomial()}:
            return vector
