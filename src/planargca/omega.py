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
table above once in that form; ``omega_act``, ``degree_raise`` and the
integer ``CachedAction`` read it.  ``CachedAction`` caches each
generator's monomial images as Gaussian-integer numerators over one
denominator, and one kernel, ``_GeneratorImages.apply``, merges them.  The
closure probe acts through ``CachedAction.act``, which takes and returns
numerators; ``verify_omega_axioms`` calls the kernel directly and adds both
sides of each axiom, cross-multiplied, into one sum of numerators that must
vanish.  Neither builds a ``Poly`` or a ``Scalar`` inside its loop.

``submodule_closure_probe`` computes a least fixed point: the smallest
subspace W that contains the seed and holds g_m w for every generator, every
index m in Z and every w in W whose image stays within the degree cap.  W
does not depend on the order of visits.  No index bound enters: lam^(-m)
g_m w is a polynomial in m, and by Taylor's formula in Y its coefficients
are H_0, sigma_0 or L_0 applied to D_j w = ∂_Y^j w / j!, less delta
D_(j-1) w for L.  W holds every g_m w exactly when it holds those
coefficients, so the probe acts with them alone.  It spins the seed
MeatAxe style until no queued remainder is left, with no column table and
no early stop.  Only the span matters, so every vector from the seed to
the report is Gaussian-integer ``Numerators`` with no denominator, held in
a fraction-free ``FractionFreeEchelon``.  X^a Y^b is the echelon column
a - (d+1)(d+2)/2 with d = a + b, an integer whose order is descending
total degree, then ascending X-degree, so each stored remainder's pivot is
its top monomial and the remainders of degree at most k span W ∩ P≤k.
1 in W proves that the seed generates the whole module, at
every index and every degree: W lies in U(g) seed, and H_0 and L_0 act as
multiplication by X and by Y.  1 outside W is only evidence of a proper
submodule, never a proof, since the module is infinite dimensional.  The
report gives dim W, dim W ∩ P≤k for every k up to the cap, and the
reduced echelon basis of W.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from math import comb, isqrt, lcm
from typing import Deque, Dict, List, Optional, Tuple

from .algebra import Generator, bracket_basis, generators_up_to
from .linalg import FractionFreeEchelon
from .poly import P_ZERO, Poly
from .scalars import Scalar, scalar_from_ints, scalar_pow

__all__ = [
    "InvalidSpec",
    "OmegaSpec",
    "action_factors",
    "omega_act",
    "degree_raise",
    "OmegaAxiomReport",
    "verify_omega_axioms",
    "ClosureReport",
    "submodule_closure_probe",
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
    and dy = -m; ``None`` when ``g`` acts as zero.  ``omega_act``,
    ``degree_raise`` and ``CachedAction`` all read it.
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


def degree_raise(spec: OmegaSpec, g: Generator) -> Optional[int]:
    """Exact rise in total degree when ``g`` acts on a nonzero polynomial.

    ``None`` when ``g`` acts as zero.  Every action above is a shift, which
    keeps the top homogeneous part, times a fixed nonzero multiplier, and
    the polynomial ring is a domain, so the rise is the multiplier's degree.
    """
    factors = action_factors(spec, g)
    return None if factors is None else factors[0].total_degree()


# A Gaussian-integer polynomial: exponent pair -> (real, imaginary) numerator.
_IntImage = Dict[Tuple[int, int], Tuple[int, int]]


def _times_linear(image: _IntImage, step: Tuple[int, int], shift: int) -> _IntImage:
    """``image * (V + shift)`` for the variable V whose exponent ``step`` raises."""
    da, db = step
    out = {(a + da, b + db): parts for (a, b), parts in image.items()}
    if shift:
        for mono, (re, im) in image.items():
            old = out.get(mono)
            if old is None:
                out[mono] = (shift * re, shift * im)
                continue
            re, im = old[0] + shift * re, old[1] + shift * im
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
        images = self.images
        image = images.get(mono)
        if image is not None:
            return image
        missing = []
        a, b = mono
        while (a, b) not in images:
            missing.append((a, b))
            if b:
                b -= 1
            else:
                a -= 1
        image = images[(a, b)]
        for a, b in reversed(missing):
            if b:
                image = _times_linear(image, (0, 1), self.dy)
            else:
                image = _times_linear(image, (1, 0), self.dx)
            images[(a, b)] = image
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


class Numerators:
    """A polynomial up to a nonzero scale, in Gaussian integers.

    ``terms`` maps the exponents ``(a, b)`` of X^a Y^b to the numerators
    ``(p, q)`` of its coefficient (p + q i) / c, over one common
    denominator c that is not kept: the closure probe needs only spans.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: _IntImage):
        self.terms = terms


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
    integers.  ``act``, the closure probe's action, hands it the input's
    numerators and returns its numerators; the axiom sweep calls it
    directly.  Neither builds a ``Poly`` or a ``Scalar``.
    """

    def __init__(self, spec: OmegaSpec):
        self.spec = spec
        self._generators: Dict[Generator, Optional[_GeneratorImages]] = {}

    def _images(self, g: Generator) -> Optional[_GeneratorImages]:
        if g not in self._generators:
            factors = action_factors(self.spec, g)
            self._generators[g] = None if factors is None else _GeneratorImages(*factors)
        return self._generators[g]

    def act(self, g: Generator, f: Numerators) -> Dict[Tuple[int, int], List[int]]:
        """Numerators of g.f, as ``_GeneratorImages.apply`` gives them.

        For f over some denominator c the result is over c times the
        ``denominator`` of g's images; empty when g acts as zero.
        """
        images = self._images(g)
        if images is None:
            return {}
        return images.apply(f.terms)


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
    basis: List[list]


def _taylor(v: Numerators, j: int) -> Numerators:
    """D_j v = ∂_Y^j v / j!, the coefficient of t^j in v(X, Y+t)."""
    out = {}
    for (a, b), (p, q) in v.terms.items():
        if b >= j:
            c = comb(b, j)
            out[(a, b - j)] = (p * c, q * c)
    return Numerators(out)


def _scaled(v: Numerators, c: int) -> Numerators:
    if c == 1:
        return v
    return Numerators({mono: (p * c, q * c) for mono, (p, q) in v.terms.items()})


def _monomial(col: int) -> Tuple[int, int]:
    """The exponents (a, b) of the probe's column a - (d+1)(d+2)/2, d = a + b.

    The columns of degree d are -T(d+1) .. -T(d+1) + d with T(n) = n(n+1)/2,
    so d is the largest n with T(n) < -col.
    """
    d = (isqrt(-8 * col - 7) - 1) // 2
    a = col + (d + 1) * (d + 2) // 2
    return a, d - a


def submodule_closure_probe(spec: OmegaSpec, seed: Poly, degree_cap: int) -> ClosureReport:
    """The least subspace W that contains the seed and satisfies

        g_m(W ∩ P≤(cap - rise(g_m))) ⊆ W   for every generator g and every m in Z,

    where P≤k is the space of polynomials of total degree at most k and
    rise is ``degree_raise``: every g_m acts on every vector of W whose
    image stays within the degree cap, at every index.  W is a least fixed
    point, so it depends only on the spec, the span of the seed and the
    cap, never on the order in which generators or vectors are visited.
    The seed is kept even when it lies above the cap; it then acts on
    nothing and W is its span.

    The report gives dim W, whether the constant polynomial 1 lies in W,
    ``dimension_by_degree`` (dim W ∩ P≤k for k = 0..cap) and ``basis``,
    the reduced echelon basis of W, row by row in column order.

    The probe spins the seed (MeatAxe style): it inserts the seed into a
    ``FractionFreeEchelon`` and queues a copy of each remainder that the
    echelon stores, then acts on each queued remainder and inserts the
    images.  Only the span matters, so every vector is ``Numerators``,
    Gaussian integers with no denominator: D_j v uses the integers
    comb(b, j), ``CachedAction.act`` returns integer images, and the two
    sides of L's coefficient below are brought over one common
    denominator, so that it is their exact difference.  X^a Y^b is column
    a - (d+1)(d+2)/2 with d = a + b, and the echelon orders columns as
    integers: descending total degree, then ascending X-degree, so each
    remainder's pivot is its top monomial.
    Every remainder is 0 at the pivots stored before it, so in a nonzero
    combination of remainders the earliest one of the highest degree keeps
    its pivot's coefficient: the combination has that degree, and the
    remainders of degree at most k span W ∩ P≤k.  So W is closed exactly
    when every g_m has acted on every remainder whose degree its rise
    allows, which is what the queue does.
    Copies are queued because back-substitution later changes the stored
    rows in place.  The probe runs until the queue is empty.

    No index bound is needed, because each family acts through finitely
    many operators.  By ``action_factors`` and Taylor's formula in Y,
    with D_j = ∂_Y^j / j!,

        lam^(-m) g_m v = M_g(m) * v(X+dx, Y-m)
                       = M_g(m) * sum_j (-m)^j (D_j v)(X+dx, Y),

    where the multiplier M_g(m) is X for H, sigma(X) for the sigma family
    and Y + m delta(X) for L.  This is a polynomial in m whose coefficient
    of m^j is, up to the sign (-1)^j,

        H:       H_0(D_j v)                    for j = 0..deg_Y v,
        sigma:   sigma_0(D_j v)                for j = 0..deg_Y v,
        L:       L_0(D_j v) - delta D_(j-1) v  for j = 0..deg_Y v + 1,

    with D_(-1) v = D_(deg_Y v + 1) v = 0.  A polynomial in m takes its
    values in W at every m in Z exactly when its coefficients lie in W:
    with n coefficients, they are combinations of the values at any n
    distinct indices (the Vandermonde matrix is invertible).  So the probe
    inserts the coefficients, at most deg_Y v + 2 ``CachedAction.act``
    calls per family for each queued remainder v.  The rise of g_m is the same for
    every m != 0 and at least that of g_0, and the coefficients are
    combinations of images g_m v, so they stay within the cap whenever
    those do.  Only L can fit at m = 0 alone: L_0 v = Y v rises by 1 and
    L_m v by deg delta when that is 2 or more.  Such a v gets L_0 v alone.

    ``contains_one`` true proves that the seed generates the whole module,
    at every index and every degree: W lies in U(g) seed, and H_0 and L_0
    act as multiplication by X and by Y, so 1 in U(g) seed gives every
    X^a Y^b.  False is only evidence of a proper submodule, never a proof,
    since the module is infinite dimensional and W sees only P≤cap.
    ``basis`` divides each stored row by its pivot, a positive integer;
    it is the only place the probe builds a ``Scalar``.
    """
    if not seed:
        raise ValueError("seed must be nonzero")
    # Each family that acts, by its index-0 generator, with the rise of g_0
    # and the rise of g_m for every m != 0.
    families = [
        (Generator(fam, 0), rise_0, degree_raise(spec, Generator(fam, 1)))
        for fam in "JIHL"
        if (rise_0 := degree_raise(spec, Generator(fam, 0))) is not None
    ]

    basis = FractionFreeEchelon()
    action = CachedAction(spec)
    queue: Deque[Numerators] = deque()
    # L's coefficients are L_0(D_j v) + (-delta) D_(j-1) v.  L_0 multiplies
    # by Y, so its images have denominator 1; scaling D_j v by -delta's
    # denominator brings both sides over that one.
    minus_delta = _GeneratorImages(-spec.l_delta, 0, 0)
    no_terms = Numerators({})

    def spin(image: Dict[Tuple[int, int], List[int]]) -> None:
        # X^a Y^b is column a - (d+1)(d+2)/2 with d = a + b.
        row = {a - (a + b + 1) * (a + b + 2) // 2: entry for (a, b), entry in image.items()}
        if basis.insert(row):
            # The new row is stored last; copy it before back-substitution.
            stored = basis.pivots[next(reversed(basis.pivots))]
            queue.append(Numerators({_monomial(col): (c.a, c.b) for col, c in stored.items()}))

    common = lcm(*(c.d for c in seed.terms.values()))
    spin({
        mono: (c.a * (common // c.d), c.b * (common // c.d))
        for mono, c in seed.terms.items()
    })
    while queue:
        v = queue.popleft()
        degree = max(a + b for a, b in v.terms)
        taylor = [v] + [_taylor(v, j) for j in range(1, max(b for _, b in v.terms) + 1)]
        for g, rise_0, rise in families:
            if degree + rise > degree_cap:
                # Only L_0 can still fit (L with deg delta >= 2).
                if degree + rise_0 <= degree_cap:
                    spin(action.act(g, v))
            elif g.family != "L":
                for d_j in taylor:
                    spin(action.act(g, d_j))
            else:
                # j = 0..deg_Y v + 1, pairing D_j v with D_(j-1) v.
                for lower, d_j in zip([no_terms] + taylor, taylor + [no_terms]):
                    image = action.act(g, _scaled(d_j, minus_delta.denominator))
                    spin(minus_delta.apply(lower.terms, image))

    return ClosureReport(
        dimension=basis.dimension,
        contains_one=basis.contains({-1: (1, 0)}),  # 1 = X^0 Y^0 is column -1
        dimension_by_degree=[
            sum(sum(_monomial(col)) <= k for col in basis.pivots)
            for k in range(degree_cap + 1)
        ],
        degree_cap=degree_cap,
        # Each row over its pivot, a positive integer: the reduced basis.
        basis=[
            Poly({
                _monomial(col): scalar_from_ints(c.a, c.b, row[min(row)].a)
                for col, c in row.items()
            }).to_json()
            for row in basis.rows_sorted()
        ],
    )
