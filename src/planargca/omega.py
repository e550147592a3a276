"""Rank-one polynomial module families over the algebra.

Each family makes the polynomial ring in X, Y into a module.  With a nonzero
scalar ``lam``, a scalar ``eta`` and a nonzero univariate polynomial
``sigma(X)`` (or ``delta(X)`` for the third family), every family acts on
``f(X, Y)`` by

    L_m f = lam^m * f(X, Y-m) * (Y + m*delta(X))
    H_m f = lam^m * X * f(X, Y-m)

and the families differ only in delta and in which of I and J acts by sigma
(the other, and both for ``delta_only``, act as zero):

    variant       delta(X)        sigma acts through
    sigma_zero    eta - X         I_m f = lam^m * sigma(X) * f(X-1, Y-m)
    zero_sigma    eta + X         J_m f = lam^m * sigma(X) * f(X+1, Y-m)
    delta_only    the given delta  --

The central elements act as zero in all three families.  Module parameters
are restricted to Gaussian rationals so that every check is exact.

Every nonzero action is a fixed multiplier times the ring homomorphism
f -> f(X+dx, Y+dy) with integer shifts.  ``action_factors`` states the
table above once in that form; ``omega_act`` and ``CachedAction`` read it.
``CachedAction`` caches each generator's monomial images as
Gaussian-integer numerators over one denominator, and one kernel,
``_GeneratorImages.apply``, merges them.  ``CachedAction.act`` takes and
returns ``Poly`` and equals ``omega_act``; the closure probe acts through
it.  Only the axiom sweep works in numerators: ``verify_omega_axioms``
calls the kernel directly and adds both sides of each axiom,
cross-multiplied, into one sum of numerators that must vanish, with no
``Poly`` or ``Scalar`` inside its loop.

``submodule_closure_probe`` computes U(g) seed, the submodule that a seed
generates.  H_0 and L_0 act as multiplication by X and by Y, so it is an
ideal of C[X, Y], and the probe finds its reduced Gröbner basis with the
bivariate engine in ``ideal``: it reduces the images of the basis under
finitely many index-free operators, the Taylor coefficients in m of
lam^(-m) g_m, and completes the basis by Buchberger's algorithm until
every image reduces to 0.  No index bound and no degree cap enter: the
cap only sets how far ``dimension_by_degree`` reads.  1 in the ideal
proves that the seed generates the whole module, and 1 outside it proves
a proper submodule, at every index and every degree; the reduced basis is
the certificate, and ``check_proper_ideal`` re-checks it through
``omega_act`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import count
from math import comb, lcm
from typing import Dict, List, Optional, Tuple

from . import ideal
from .algebra import Generator, bracket_basis, generators_up_to
from .poly import P_ZERO, Poly
from .scalars import Scalar, scalar_from_ints, scalar_pow

__all__ = [
    "InvalidSpec",
    "OmegaSpec",
    "action_factors",
    "omega_act",
    "OmegaAxiomReport",
    "verify_omega_axioms",
    "ClosureReport",
    "submodule_closure_probe",
    "check_proper_ideal",
]

# Per variant, the family sigma acts through and the X-shift dx of its
# argument, f(X+dx, Y-m) (see the table above); None when neither does.
_SIGMA_SLOTS = {"sigma_zero": ("I", -1), "zero_sigma": ("J", 1), "delta_only": None}
VARIANTS = tuple(_SIGMA_SLOTS)


class InvalidSpec(ValueError):
    """The module parameters violate their constraints."""


@dataclass(frozen=True)
class OmegaSpec:
    """Parameters selecting one module from the three families."""

    variant: str
    lam: Scalar
    eta: Optional[Scalar] = None
    sigma: Optional[Poly] = None
    delta: Optional[Poly] = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise InvalidSpec(f"unknown variant {self.variant!r}")
        if not self.lam:
            raise InvalidSpec("lam must be nonzero")
        if self.variant == "delta_only":
            if self.delta is None or self.eta is not None or self.sigma is not None:
                raise InvalidSpec("delta_only takes delta and nothing else")
            if not self.delta.is_univariate_in_x():
                raise InvalidSpec("delta must be a polynomial in X alone")
        else:
            if self.sigma is None or self.eta is None or self.delta is not None:
                raise InvalidSpec(f"{self.variant} takes eta and sigma")
            if not self.sigma:
                raise InvalidSpec("sigma must be nonzero")
            if not self.sigma.is_univariate_in_x():
                raise InvalidSpec("sigma must be a polynomial in X alone")

    @property
    def sigma_slot(self) -> Optional[Tuple[str, int]]:
        """``(family, dx)``: that family acts by sigma(X) f(X+dx, Y-m).

        ``None`` for ``delta_only``, where neither I nor J acts.
        """
        return _SIGMA_SLOTS[self.variant]

    @cached_property
    def l_delta(self) -> Poly:
        """The delta(X) in L_m f = lam^m f(X, Y-m) (Y + m delta(X)).

        In both sigma families it is eta + dx X, with dx from ``sigma_slot``.
        """
        if self.sigma_slot is None:
            return self.delta
        return Poly({(1, 0): Scalar(self.sigma_slot[1]), (0, 0): self.eta})


def action_factors(spec: OmegaSpec, g: Generator) -> Optional[Tuple[Poly, int, int]]:
    """``(multiplier, dx, dy)``: ``g`` acts by multiplier * f(X+dx, Y+dy).

    This is the table above as data, with lam^m folded into the multiplier
    and dy = -m; ``None`` when ``g`` acts as zero.  ``omega_act`` and
    ``CachedAction`` both read it.
    """
    if g.is_central:
        return None
    m = g.index
    lam_m = scalar_pow(spec.lam, m)
    slot = spec.sigma_slot
    if g.family == "L":
        multiplier = Poly.monomial(0, 1, lam_m) + spec.l_delta.scale(Scalar(m) * lam_m)
        return multiplier, 0, -m
    if g.family == "H":
        return Poly.monomial(1, 0, lam_m), 0, -m
    if slot is not None and g.family == slot[0]:
        return spec.sigma.scale(lam_m), slot[1], -m
    return None


def omega_act(spec: OmegaSpec, g: Generator, f: Poly) -> Poly:
    """Action of one generator on a polynomial, per ``action_factors``."""
    factors = action_factors(spec, g)
    if factors is None:
        return P_ZERO
    multiplier, dx, dy = factors
    return multiplier * f.shift(Scalar(dx), Scalar(dy))


# A Gaussian-integer polynomial: exponent pair -> (real, imaginary) numerator.
_IntImage = Dict[Tuple[int, int], Tuple[int, int]]


def _times_linear(image: _IntImage, step: Tuple[int, int], shift: int) -> _IntImage:
    """``image * (V + shift)`` for the variable V whose exponent ``step`` raises."""
    da, db = step
    out = {(a + da, b + db): parts for (a, b), parts in image.items()}
    if shift:
        for mono, (re, im) in image.items():
            old_re, old_im = out.get(mono, (0, 0))
            re, im = old_re + shift * re, old_im + shift * im
            if re or im:
                out[mono] = (re, im)
            else:
                del out[mono]
    return out


class _GeneratorImages:
    """Integer images of monomials under one nonzero generator action.

    The multiplier is held as Gaussian-integer numerators over one
    denominator; every image shares that denominator.
    """

    __slots__ = ("denominator", "dx", "dy", "images")

    def __init__(self, multiplier: Poly, dx: int, dy: int):
        denominator = lcm(*(c.d for c in multiplier.terms.values()))
        self.denominator, self.dx, self.dy = denominator, dx, dy
        self.images: Dict[Tuple[int, int], _IntImage] = {
            (0, 0): {
                mono: (c.a * (denominator // c.d), c.b * (denominator // c.d))
                for mono, c in multiplier.terms.items()
            }
        }

    def image(self, mono: Tuple[int, int]) -> _IntImage:
        """Numerators of the image of X^a Y^b, built up from the nearest
        cached image along X^a Y^b <- X^a Y^(b-1) <- ... <- X^a <- ... <- 1."""
        image = self.images.get(mono)
        if image is None:
            a, b = mono
            if b:
                image = _times_linear(self.image((a, b - 1)), (0, 1), self.dy)
            else:
                image = _times_linear(self.image((a - 1, b)), (1, 0), self.dx)
            self.images[mono] = image
        return image

    def apply(
        self, terms: _IntImage, total: Optional[Dict[Tuple[int, int], List[int]]] = None
    ) -> Dict[Tuple[int, int], List[int]]:
        """Numerators of g.f for f = sum (p + q i) X^a Y^b, given as
        ``{(a, b): (p, q)}`` over some denominator c.

        The result is over c * ``denominator``, as ``[re, im]`` per output
        monomial; entries that cancel stay as ``[0, 0]``.  With ``total``
        the products are added into it and it is returned.
        """
        if total is None:
            total = {}
        image = self.image
        for mono, (p, q) in terms.items():
            for out, (re, im) in image(mono).items():
                entry = total.get(out)
                if entry is None:
                    total[out] = [p * re - q * im, p * im + q * re]
                else:
                    entry[0] += p * re - q * im
                    entry[1] += p * im + q * re
        return total


class CachedAction:
    """Generator actions extended linearly over cached integer monomial images.

    Each action is a fixed multiplier times the ring homomorphism
    f -> f(X+dx, Y+dy) with integer shifts (``action_factors``), so

        image(g, X^a Y^b) = (X+dx) image(g, X^(a-1) Y^b)
                          = (Y+dy) image(g, X^a Y^(b-1)).

    With the multiplier over one denominator per generator, every cached
    image is a Gaussian-integer polynomial over that denominator, and each
    new image costs one pass of integer additions over a cached one.
    ``_GeneratorImages.apply`` is the one kernel that merges images in
    integers.  ``act`` takes and returns ``Poly`` and equals ``omega_act``:
    it hands the kernel the input's numerators over their common
    denominator and reads the result back over that denominator times the
    images'.  The axiom sweep calls the kernel directly and stays in
    numerators.
    """

    def __init__(self, spec: OmegaSpec):
        self.spec = spec
        self._generators: Dict[Generator, Optional[_GeneratorImages]] = {}

    def _images(self, g: Generator) -> Optional[_GeneratorImages]:
        if g not in self._generators:
            factors = action_factors(self.spec, g)
            self._generators[g] = None if factors is None else _GeneratorImages(*factors)
        return self._generators[g]

    def act(self, g: Generator, f: Poly) -> Poly:
        """g.f, equal to ``omega_act(spec, g, f)``.

        f goes to the kernel as numerators over their common denominator c,
        and g.f comes back over c times the ``denominator`` of g's images.
        """
        images = self._images(g)
        if images is None:
            return P_ZERO
        common = lcm(*(c.d for c in f.terms.values()))
        total = images.apply({
            mono: (c.a * (common // c.d), c.b * (common // c.d)) for mono, c in f.terms.items()
        })
        denominator = common * images.denominator
        return Poly({
            mono: scalar_from_ints(re, im, denominator)
            for mono, (re, im) in total.items() if re or im
        })


@dataclass
class OmegaAxiomReport:
    index_bound: int
    basis_cap: int
    pairs_checked: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_omega_axioms(
    spec: OmegaSpec, index_bound: int, basis_cap: int
) -> OmegaAxiomReport:
    """Check bracket action = commutator of actions on a monomial grid.

    Runs over every ordered generator pair with index magnitude up to the
    bound (antisymmetry makes the reversed pair redundant, so only one
    orientation is checked) and every monomial X^a Y^b with a, b up to the
    cap.  Each check is one sum that must vanish.  In Gaussian-integer
    numerators (``CachedAction``'s cached images, merged by
    ``_GeneratorImages.apply``), the bracket side [g1, g2] f = sum c_k g_k f
    is lhs over D_lhs = lcm(c_k.d D_k), and the commutator g1(g2 f) -
    g2(g1 f) is rhs over D_rhs = D1 D2, with D the generators'
    denominators.  The sweep accumulates

        lhs * D_rhs - rhs * D_lhs

    in one integer dict: D_rhs is folded into the bracket coefficients once
    per pair, and -D_lhs and +D_lhs into the inputs of g1(g2 f) and
    g2(g1 f).  Both denominators are positive, so lhs / D_lhs = rhs / D_rhs
    exactly when lhs D_rhs = rhs D_lhs, part by part and monomial by
    monomial: the sum vanishes exactly when the axiom holds, without
    reducing either side.
    """
    report = OmegaAxiomReport(index_bound=index_bound, basis_cap=basis_cap)
    gens = generators_up_to(index_bound)
    monomials = [(a, b) for a in range(basis_cap + 1) for b in range(basis_cap + 1)]
    action = CachedAction(spec)
    for i, g1 in enumerate(gens):
        images1 = action._images(g1)
        for g2 in gens[i:]:
            report.pairs_checked += 1
            images2 = action._images(g2)
            either_zero = images1 is None or images2 is None
            rhs_den = 1 if either_zero else images1.denominator * images2.denominator
            bracket = [
                (action._images(g), coeff)
                for g, coeff in bracket_basis(g1, g2).terms.items()
            ]
            bracket = [(images, coeff) for images, coeff in bracket if images is not None]
            lhs_den = lcm(*(coeff.d * images.denominator for images, coeff in bracket))
            scaled = []
            for images, coeff in bracket:
                scale = rhs_den * (lhs_den // (coeff.d * images.denominator))
                scaled.append((images, coeff.a * scale, coeff.b * scale))
            for mono in monomials:
                total: Dict[Tuple[int, int], List[int]] = {}
                for images, p, q in scaled:
                    images.apply({mono: (p, q)}, total)
                if not either_zero:
                    images1.apply(
                        {
                            out: (-lhs_den * re, -lhs_den * im)
                            for out, (re, im) in images2.image(mono).items()
                        },
                        total,
                    )
                    images2.apply(
                        {
                            out: (lhs_den * re, lhs_den * im)
                            for out, (re, im) in images1.image(mono).items()
                        },
                        total,
                    )
                if any(re or im for re, im in total.values()):
                    report.violations.append(f"[{g1},{g2}] on X^{mono[0]}Y^{mono[1]}")
    return report


@dataclass
class ClosureReport:
    dimension: int
    contains_one: bool
    dimension_by_degree: List[int]
    degree_cap: int
    ideal: List[list]


def _taylor(v: Poly, j: int) -> Poly:
    """D_j v = ∂_Y^j v / j!, the coefficient of t^j in v(X, Y+t)."""
    return Poly({(a, b - j): c * comb(b, j) for (a, b), c in v.terms.items() if b >= j})


def submodule_closure_probe(spec: OmegaSpec, seed: Poly, degree_cap: int) -> ClosureReport:
    """U(g) seed, the submodule that the seed generates, as an ideal.

    The report gives ``ideal``, the reduced Gröbner basis of U(g) seed in
    grevlex (``ideal.reduced_basis``), each element over its leading
    coefficient, as ``Poly`` JSON; ``contains_one``, whether it is (1);
    ``dimension_by_degree``, dim(U(g) seed ∩ P≤k) for k = 0..cap, read
    off the leading monomials; and ``dimension``, its last entry.  All of
    them are properties of U(g) seed: the degree cap sets only how far
    ``dimension_by_degree`` reads, and bounds no work.

    **It is an ideal.**  H_0 and L_0 act as multiplication by X and by Y
    (lam^0 = 1), so U(g) seed is closed under multiplication by C[X, Y].

    **Generators suffice.**  Each g_m acts as a multiplier M times the ring
    automorphism tau: f -> f(X+dx, Y-m), so g_m(h p) = tau(h) g_m(p), and
    an ideal (G) is invariant exactly when g_m G_i lies in (G) for every
    i, generator family and m in Z.  No index bound is needed: by
    ``action_factors`` and Taylor's formula in Y, with D_j = ∂_Y^j / j!,

        lam^(-m) g_m v = M_g(m) * v(X+dx, Y-m)
                       = M_g(m) * sum_j (-m)^j (D_j v)(X+dx, Y),

    where M_g(m) is X for H, sigma(X) for the sigma family and
    Y + m delta(X) for L.  This is a polynomial in m whose coefficient of
    m^j is, up to the sign (-1)^j,

        H:       C_(H,j) v = H_0(D_j v)                    for j = 0..deg_Y v,
        sigma:   C_(s,j) v = sigma_0(D_j v)                for j = 0..deg_Y v,
        L:       C_(L,j) v = L_0(D_j v) - delta D_(j-1) v  for j = 0..deg_Y v + 1,

    with D_(-1) v = D_(deg_Y v + 1) v = 0.  A polynomial in m takes its
    values in (G) at every m in Z exactly when its coefficients lie in (G):
    with n coefficients they are combinations of the values at any n
    distinct indices (the Vandermonde matrix is invertible).  So (G) is
    invariant exactly when every C_(g,j) G_i lies in (G).

    **The algorithm.**  G starts as {seed}.  Each element v that enters G
    queues its images C_(g,j) v: g_0(D_j v) through ``CachedAction.act``,
    plus -delta D_(j-1) v for L.  One queued image at a time, lowest total
    degree first, is reduced modulo G, and a nonzero remainder enters G,
    which Buchberger's algorithm then completes to the reduced Gröbner
    basis (``ideal.extend``).  The loop stops when the queue is empty, or
    when G = {1}.  The ideals form an ascending chain, so it stops
    (Hilbert's basis theorem).  The seed and the remainders generate (G),
    and each of their images reduces to 0 modulo the final G, so (G) is
    invariant; every element added lies in U(g) seed, so (G) = U(g) seed.
    Taking one image at a time, lowest degree first, keeps the
    intermediate bases small.

    ``contains_one`` is exact both ways: true proves that the seed
    generates the whole module, and false proves a proper submodule, at
    every index and every degree; G is the certificate, which
    ``check_proper_ideal`` re-checks with ``omega_act``.
    """
    if not seed:
        raise ValueError("seed must be nonzero")
    families = [
        Generator(fam, 0) for fam in "JIHL"
        if action_factors(spec, Generator(fam, 0)) is not None
    ]
    action = CachedAction(spec)
    delta = spec.l_delta
    queue: List[Tuple[int, int, Dict[Tuple[int, int], Scalar]]] = []
    queued = count()

    def enter(r: Dict[Tuple[int, int], Scalar]) -> None:
        v = Poly(r)
        taylor = [v] + [_taylor(v, j) for j in range(1, v.y_degree() + 1)]
        for g in families:
            images = [action.act(g, d_j) for d_j in taylor] + [P_ZERO]
            if g.family == "L":
                for j, lower in enumerate(taylor, 1):
                    images[j] = images[j] - delta * lower
            for image in images:
                if image:
                    heappush(queue, (image.total_degree(), next(queued), image.terms))

    basis = [ideal.normal_form(seed.terms, [])]
    enter(basis[0])
    while queue and ideal.leading(basis[0]) != (0, 0):
        r = ideal.normal_form(heappop(queue)[2], basis)
        if r:
            basis = ideal.extend(basis, r)
            enter(r)

    by_degree = ideal.dimension_by_degree(basis, degree_cap)
    return ClosureReport(
        dimension=by_degree[-1],
        contains_one=ideal.leading(basis[0]) == (0, 0),
        dimension_by_degree=by_degree,
        degree_cap=degree_cap,
        ideal=[Poly(g).to_json() for g in basis],
    )


def check_proper_ideal(spec: OmegaSpec, seed: Poly, generators: List[Poly]) -> bool:
    """Whether ``generators`` certify that the seed generates a proper
    submodule, by ``omega_act`` and reduction alone.

    True when the generators are a Gröbner basis (every S-polynomial
    reduces to 0), none of them is a constant, the seed reduces to 0, and
    g_m G_i reduces to 0 for every family and every m = -k..k.  Then 1 is
    not in (G), and (G) is an invariant ideal that holds the seed.  With
    k = max(3, ceil((t + 1) / 2)) for t the largest deg_Y G_i, there are
    2k + 1 >= t + 2 indices, at least as many as lam^(-m) g_m G_i, a
    polynomial in m of degree at most t + 1, has coefficients; so its
    coefficients, and its values at every m in Z, lie in (G).
    """
    basis = [ideal.normal_form(g.terms, []) for g in generators]
    bound = max(3, (max((g.y_degree() for g in generators), default=0) + 2) // 2)
    return (
        bool(generators)
        and all(g.total_degree() >= 1 for g in generators)
        and ideal.is_groebner(basis)
        and not ideal.normal_form(seed.terms, basis)
        and not any(
            ideal.normal_form(omega_act(spec, Generator(fam, m), g).terms, basis)
            for g in generators
            for fam in "LHIJ"
            for m in range(-bound, bound + 1)
        )
    )
