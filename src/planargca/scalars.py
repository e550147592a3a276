"""Exact Gaussian-rational scalars.

A scalar is a complex number ``a + b*i`` whose real and imaginary parts are
arbitrary-precision rationals (``fractions.Fraction``).  Everything downstream
of this module is exact: equality tests are decisive and every identity is
checked at tolerance zero.  ``Fraction`` keeps values in lowest terms with a
positive denominator, so no extra normalisation pass is needed.

The string form is ``a/b+c/d*i`` with zero parts omitted and the ``/b``
suppressed for integers, e.g. ``"3"``, ``"-1/2"``, ``"2*i"``, ``"1/2-3/4*i"``.
The zero scalar prints as ``"0"``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
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


# Rational arithmetic is the innermost loop of every probe, and the stock
# Fraction operators on older interpreters renormalize from scratch on each
# call.  When the private coprime layout is available we do the standard
# two-gcd multiplication and Knuth-style addition ourselves and build the
# results without re-reducing; otherwise we fall back to the plain
# operators.  Results are identical either way.
_HAS_COPRIME_LAYOUT = hasattr(Fraction(1), "_numerator")

if _HAS_COPRIME_LAYOUT:

    def _fraction_raw(num: int, den: int) -> Fraction:
        out = Fraction.__new__(Fraction)
        out._numerator = num
        out._denominator = den
        return out

    def _fmul(a: Fraction, b: Fraction) -> Fraction:
        na, da = a._numerator, a._denominator
        nb, db = b._numerator, b._denominator
        g1 = gcd(na, db)
        if g1 > 1:
            na //= g1
            db //= g1
        g2 = gcd(nb, da)
        if g2 > 1:
            nb //= g2
            da //= g2
        return _fraction_raw(na * nb, da * db)

    def _fadd(a: Fraction, b: Fraction) -> Fraction:
        na, da = a._numerator, a._denominator
        nb, db = b._numerator, b._denominator
        g = gcd(da, db)
        if g == 1:
            return _fraction_raw(na * db + da * nb, da * db)
        s = da // g
        t = na * (db // g) + nb * s
        g2 = gcd(t, g)
        if g2 == 1:
            return _fraction_raw(t, s * db)
        return _fraction_raw(t // g2, s * (db // g2))

    def _fsub(a: Fraction, b: Fraction) -> Fraction:
        return _fadd(a, _fraction_raw(-b._numerator, b._denominator))

else:  # pragma: no cover - exercised only on exotic interpreters

    def _fmul(a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def _fadd(a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def _fsub(a: Fraction, b: Fraction) -> Fraction:
        return a - b


_F_ZERO = Fraction(0)


class Scalar:
    """Gaussian rational ``re + im*i`` with exact ``Fraction`` parts.

    Instances are immutable by convention (nothing in this package mutates
    them after construction) and hashable, so they can serve as coefficients
    in sparse maps.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "Scalar":
        """Internal constructor for parts that are already Fractions."""
        self = object.__new__(cls)
        self.re = re
        self.im = im
        return self

    # -- ring / field structure -------------------------------------------

    def __add__(self, other: "Scalar | Rationalish") -> "Scalar":
        other = _coerce(other)
        return Scalar._raw(
            _fadd(self.re, other.re), _fadd(self.im, other.im)
        )

    __radd__ = __add__

    def __sub__(self, other: "Scalar | Rationalish") -> "Scalar":
        other = _coerce(other)
        return Scalar._raw(
            _fsub(self.re, other.re), _fsub(self.im, other.im)
        )

    def __rsub__(self, other: "Scalar | Rationalish") -> "Scalar":
        return _coerce(other) - self

    def __neg__(self) -> "Scalar":
        return Scalar._raw(-self.re, -self.im)

    def __mul__(self, other: "Scalar | Rationalish") -> "Scalar":
        other = _coerce(other)
        # Most values in practice are purely rational; skip the complex
        # cross terms when the imaginary parts vanish.
        if not self.im and not other.im:
            return Scalar._raw(_fmul(self.re, other.re), _F_ZERO)
        return Scalar._raw(
            _fsub(_fmul(self.re, other.re), _fmul(self.im, other.im)),
            _fadd(_fmul(self.re, other.im), _fmul(self.im, other.re)),
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("zero scalar has no inverse")
        if not self.im:
            return Scalar._raw(1 / self.re, self.im)
        norm = self.re * self.re + self.im * self.im
        return Scalar._raw(self.re / norm, -self.im / norm)

    def __truediv__(self, other: "Scalar | Rationalish") -> "Scalar":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other: "Scalar | Rationalish") -> "Scalar":
        return _coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> "Scalar":
        return scalar_pow(self, exponent)

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    # -- comparisons and bookkeeping --------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        # Equal values hash equally: a real scalar equals its Fraction.
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            imag = f"{self.im}*i"
            if parts and self.im > 0:
                parts.append("+")
            parts.append(imag)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Scalar({str(self)!r})"


def _coerce(value: "Scalar | Rationalish") -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


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
