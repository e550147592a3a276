"""Exact Gaussian-rational scalars.

A scalar is a complex number ``(a + b*i)/d`` held as three integers.  The
triple is canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so equal values
have equal fields and every operation brings its result to lowest terms
with one three-way gcd.  Everything downstream of this module is exact:
equality tests are decisive and every identity is checked at tolerance
zero.  The parts of a scalar are built from ``int`` or ``Fraction`` values
only; floats and strings are refused (``parse_scalar`` reads text).

The string form is ``a/b+c/d*i`` with zero parts omitted and the ``/b``
suppressed for integers, e.g. ``"3"``, ``"-1/2"``, ``"2*i"``, ``"1/2-3/4*i"``.
The zero scalar prints as ``"0"``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, Tuple, TypeVar, Union

__all__ = [
    "Scalar",
    "ZERO",
    "ONE",
    "IMAG",
    "sc",
    "scalar_pow",
    "parse_scalar",
    "ZeroToNegativePower",
    "accumulate",
    "LinearCombination",
]


class ZeroToNegativePower(ArithmeticError):
    """Zero cannot be raised to a negative integer power."""


Rationalish = Union[int, Fraction]


class Scalar:
    """Gaussian rational ``(a + b*i)/d`` in lowest terms.

    ``re`` and ``im`` give the parts as ``Fraction``.  Instances are
    immutable by convention (nothing in this package mutates them after
    construction) and hashable, so they can serve as coefficients in
    sparse maps.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(
                    f"scalar parts must be int or Fraction, not {part!r}"
                )
        # Both parts are in lowest terms, so over their least common
        # denominator the triple is already canonical.
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- ring / field structure -------------------------------------------

    def __add__(self, other: "Scalar | Rationalish") -> "Scalar":
        other = _coerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.a + other.a, self.b + other.b, d1)
        return _reduced(
            self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2
        )

    __radd__ = __add__

    def __sub__(self, other: "Scalar | Rationalish") -> "Scalar":
        other = _coerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.a - other.a, self.b - other.b, d1)
        return _reduced(
            self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2
        )

    def __rsub__(self, other: "Scalar | Rationalish") -> "Scalar":
        return _coerce(other) - self

    def __neg__(self) -> "Scalar":
        return _canonical(-self.a, -self.b, self.d)

    def __mul__(self, other: "Scalar | Rationalish") -> "Scalar":
        other = _coerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        # d / (a + b*i) = d*(a - b*i) / (a^2 + b^2)
        a, b, d = self.a, self.b, self.d
        if not (a or b):
            raise ZeroDivisionError("zero scalar has no inverse")
        return _reduced(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other: "Scalar | Rationalish") -> "Scalar":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other: "Scalar | Rationalish") -> "Scalar":
        return _coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> "Scalar":
        return scalar_pow(self, exponent)

    def conjugate(self) -> "Scalar":
        return _canonical(self.a, -self.b, self.d)

    # -- comparisons and bookkeeping --------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        # Equal values hash equally: a real scalar equals its Fraction.
        if not self.b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        if self.a:
            parts.append(str(self.re))
        if self.b:
            if parts and self.b > 0:
                parts.append("+")
            parts.append(f"{self.im}*i")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Scalar({str(self)!r})"


def _canonical(a: int, b: int, d: int) -> Scalar:
    """Build ``(a + b*i)/d`` from a triple that is already canonical."""
    out = object.__new__(Scalar)
    out.a = a
    out.b = b
    out.d = d
    return out


def _reduced(a: int, b: int, d: int) -> Scalar:
    """Build ``(a + b*i)/d`` for ``d > 0``, dividing out ``gcd(a, b, d)``."""
    g = gcd(a, b, d)
    if g == 1:
        return _canonical(a, b, d)
    return _canonical(a // g, b // g, d // g)


def _coerce(value: "Scalar | Rationalish") -> Scalar:
    if isinstance(value, Scalar):
        return value
    return Scalar(value)


ZERO = Scalar(0)
ONE = Scalar(1)
IMAG = Scalar(0, 1)


def sc(re: Rationalish = 0, im: Rationalish = 0) -> Scalar:
    """Shorthand constructor, e.g. ``sc(1, 2)`` is ``1 + 2i``."""
    return Scalar(re, im)


@lru_cache(maxsize=8192)
def scalar_pow(base: Scalar, exponent: int) -> Scalar:
    """Exact integer power; the empty product gives 1.

    Negative exponents invert first, so ``base`` must be nonzero for them.
    Cached: the module actions evaluate the same small powers constantly.
    """
    if exponent < 0:
        if not base:
            raise ZeroToNegativePower("0 cannot be raised to a negative power")
        base = base.inverse()
        exponent = -exponent
    result = ONE
    square = base
    while exponent:
        if exponent & 1:
            result = result * square
        square = square * square
        exponent >>= 1
    return result


# One signed rational, optionally followed by "*i" or just "i".
_TERM = re.compile(r"^([+-]?)(\d+(?:/\d+)?)?(\*?i)?$")


def parse_scalar(text: str) -> Scalar:
    """Parse the ``a/b+c/d*i`` string form (inverse of ``str``).

    Raises ``ValueError`` on malformed input, including zero denominators.
    """
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty scalar string")
    # Split into sign-prefixed terms: "1/2-3*i" -> ["1/2", "-3*i"].
    pieces = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(pieces) != compact:
        raise ValueError(f"malformed scalar {text!r}")
    re_part: Fraction | None = None
    im_part: Fraction | None = None
    for piece in pieces:
        match = _TERM.match(piece)
        if match is None:
            raise ValueError(f"malformed scalar {text!r}")
        sign, body, imag_mark = match.groups()
        if body is None and not imag_mark:
            raise ValueError(f"malformed scalar {text!r}")
        try:
            value = Fraction(body) if body is not None else Fraction(1)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in scalar {text!r}") from exc
        if sign == "-":
            value = -value
        if imag_mark:
            if im_part is not None:
                raise ValueError(f"repeated imaginary part in {text!r}")
            im_part = value
        else:
            if re_part is not None:
                raise ValueError(f"repeated real part in {text!r}")
            re_part = value
    return Scalar(re_part or 0, im_part or 0)


# -- sparse linear combinations ------------------------------------------------


def accumulate(out: Dict[Hashable, Scalar], key: Hashable, coeff: Scalar) -> None:
    """Add ``coeff`` to ``out[key]`` in place, dropping the entry at zero."""
    updated = out.get(key, ZERO) + coeff
    if updated:
        out[key] = updated
    else:
        out.pop(key, None)


Combination = TypeVar("Combination", bound="LinearCombination")


class LinearCombination:
    """Finite sum of basis keys with nonzero scalar coefficients.

    ``terms`` maps each key to its coefficient and never holds a zero.
    Subclasses fix what the keys are (generators, PBW monomials, exponent
    pairs) and how the sum prints; the vector-space operations live here.
    Values of different subclasses never compare equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Hashable, Scalar] | None = None):
        self.terms = {key: c for key, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls: type[Combination]) -> Combination:
        return cls()

    @classmethod
    def single(
        cls: type[Combination], key: Hashable, coeff: Scalar = ONE
    ) -> Combination:
        return cls({key: coeff})

    @classmethod
    def combine(
        cls: type[Combination], pairs: Iterable[Tuple[Scalar, "LinearCombination"]]
    ) -> Combination:
        """``sum coeff * vector`` over ``(coeff, vector)`` pairs, in one dict."""
        out: Dict[Hashable, Scalar] = {}
        for coeff, vector in pairs:
            if coeff:
                for key, c in vector.terms.items():
                    accumulate(out, key, c * coeff)
        return cls(out)

    # A zero left in ``out`` by one merge is dropped by the constructor;
    # the surviving keys keep the order ``accumulate`` would give them.
    def __add__(self: Combination, other: Combination) -> Combination:
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, ZERO) + c
        return type(self)(out)

    def __sub__(self: Combination, other: Combination) -> Combination:
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, ZERO) - c
        return type(self)(out)

    def __neg__(self: Combination) -> Combination:
        return type(self)({key: -c for key, c in self.terms.items()})

    def scale(self: Combination, coeff: Scalar) -> Combination:
        if not coeff:
            return type(self)()
        return type(self)({key: c * coeff for key, c in self.terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"
