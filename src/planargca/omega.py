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

``submodule_closure_probe`` is a bounded semi-decision: reaching the
constant polynomial 1 from a seed certifies (exactly, within the given
index and degree bounds) that the seed generates a dense orbit; not
reaching it is only evidence of a proper submodule, never a proof, since
the module is infinite dimensional.  Its ``ClosureReport.basis`` is the
reduced echelon basis of the span it found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .algebra import Generator, bracket_basis, generators_up_to
from .linalg import SparseEchelon
from .poly import P_ONE, P_ZERO, Poly
from .scalars import ZERO, Scalar, scalar_pow

__all__ = [
    "InvalidSpec",
    "OmegaSpec",
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


def omega_act(spec: OmegaSpec, g: Generator, f: Poly) -> Poly:
    """Action of one generator on a polynomial, per the table above.

    Each action is a multiplier, lam^m folded in, times f(X+dx, Y-m).
    """
    if g.is_central:
        return P_ZERO
    m = g.index
    lam_m = scalar_pow(spec.lam, m)
    slot = spec.sigma_slot
    dx = ZERO
    if g.family == "L":
        multiplier = Poly.monomial(0, 1, lam_m) + spec.l_delta.scale(Scalar(m) * lam_m)
    elif g.family == "H":
        multiplier = Poly.monomial(1, 0, lam_m)
    elif slot is not None and g.family == slot[0]:
        multiplier, dx = spec.sigma.scale(lam_m), Scalar(slot[1])
    else:
        return P_ZERO
    return multiplier * f.shift(dx, Scalar(-m))


def degree_raise(spec: OmegaSpec, g: Generator) -> Optional[int]:
    """Exact rise in total degree when ``g`` acts on a nonzero polynomial.

    ``None`` when ``g`` acts as zero.  Every action above is a shift, which
    keeps the top homogeneous part, times a fixed nonzero multiplier, and
    the polynomial ring is a domain, so the rise is the multiplier's degree.
    """
    if g.is_central:
        return None
    if g.family == "H":
        return 1
    if g.family == "L":
        return max(1, spec.l_delta.total_degree()) if g.index else 1
    slot = spec.sigma_slot
    if slot is not None and g.family == slot[0]:
        return spec.sigma.total_degree()
    return None


class CachedAction:
    """Generator actions extended linearly over cached monomial images.

    The actions are linear, so acting on a polynomial reduces to scaling
    and merging the cached images of its monomials.  This is the hot path
    of the axiom sweep and the closure probe.
    """

    def __init__(self, spec: OmegaSpec):
        self.spec = spec
        self._images: Dict[Tuple[Generator, Tuple[int, int]], Poly] = {}

    def act(self, g: Generator, f: Poly) -> Poly:
        total: Dict[Tuple[int, int], Scalar] = {}
        for mono, coeff in f.terms.items():
            key = (g, mono)
            image = self._images.get(key)
            if image is None:
                image = omega_act(self.spec, g, Poly.monomial(*mono))
                self._images[key] = image
            for out_mono, base in image.terms.items():
                updated = total.get(out_mono, ZERO) + base * coeff
                if updated:
                    total[out_mono] = updated
                else:
                    total.pop(out_mono, None)
        return Poly(total)


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
    cap.  Exact equality is required.
    """
    report = OmegaAxiomReport(index_bound=index_bound, basis_cap=basis_cap)
    gens = generators_up_to(index_bound)
    monomials = [
        Poly.monomial(a, b)
        for a in range(basis_cap + 1)
        for b in range(basis_cap + 1)
    ]
    action = CachedAction(spec)
    for i, g1 in enumerate(gens):
        for g2 in gens[i:]:
            lhs_elem = bracket_basis(g1, g2)
            report.pairs_checked += 1
            for which, f in enumerate(monomials):
                lhs = Poly.combine(
                    (coeff, action.act(g, f))
                    for g, coeff in lhs_elem.terms.items()
                )
                rhs = action.act(g1, action.act(g2, f)) - action.act(
                    g2, action.act(g1, f)
                )
                if lhs != rhs:
                    report.violations.append(
                        f"[{g1},{g2}] on X^{which // (basis_cap + 1)}"
                        f"Y^{which % (basis_cap + 1)}"
                    )
    return report


def _monomial_table(max_degree: int) -> Tuple[List[Tuple[int, int]], Dict[Tuple[int, int], int]]:
    """Fixed column order for polynomials of bounded total degree."""
    monomials = sorted(
        (
            (a, b)
            for a in range(max_degree + 1)
            for b in range(max_degree + 1 - a)
        ),
        key=lambda m: (m[0] + m[1], m[0]),
    )
    return monomials, {m: i for i, m in enumerate(monomials)}


@dataclass
class ClosureReport:
    dimension: int
    contains_one: bool
    truncated: int
    index_bound: int
    degree_cap: int
    basis: List[list]


def submodule_closure_probe(
    spec: OmegaSpec, seed: Poly, index_bound: int, degree_cap: int
) -> ClosureReport:
    """Span of the seed's orbit under all generators up to the index bound.

    Vectors whose total degree exceeds the cap are discarded (counted as
    truncated directions, not errors), so the reported span is a subspace
    of the true orbit span.  The probe iterates to a fixed point and reports
    whether the constant polynomial 1 lies in the span.  Image degrees are
    predicted by ``degree_raise`` before acting, so images over the cap and
    zero images are never computed.  ``basis`` is the reduced echelon basis
    of the span (see ``linalg.SparseEchelon``).
    """
    if not seed:
        raise ValueError("seed must be nonzero")
    generators: List[Generator] = []
    # Fixed insertion order: family rank then ascending index.
    for fam in ("J", "I", "H", "L"):
        for idx in range(-index_bound, index_bound + 1):
            generators.append(Generator(fam, idx))

    # Everything retained has total degree at most the cap (the seed is kept
    # regardless), so a fixed column table covers all rows the probe stores.
    monomials, column_of = _monomial_table(max(degree_cap, seed.total_degree()))
    basis = SparseEchelon()

    def to_row(p: Poly) -> Dict[int, Scalar]:
        return {column_of[mono]: coeff for mono, coeff in p.terms.items()}

    action = CachedAction(spec)
    raises = {g: degree_raise(spec, g) for g in generators}
    truncated = 0
    queue: List[Poly] = [seed]
    basis.insert(to_row(seed))
    # Once the span saturates the whole degree-capped space nothing can
    # change either report field, so exploration stops there.  With an
    # over-cap seed the simple dimension count does not certify coverage,
    # so the shortcut is disabled.
    saturated = (
        (degree_cap + 1) * (degree_cap + 2) // 2
        if seed.total_degree() <= degree_cap
        else None
    )
    while queue and (saturated is None or basis.dimension < saturated):
        current = queue.pop(0)
        degree = current.total_degree()
        for g in generators:
            rise = raises[g]
            if rise is None:
                continue
            if degree + rise > degree_cap:
                truncated += 1
                continue
            image = action.act(g, current)
            row = to_row(image)
            if basis.insert(row):
                queue.append(image)

    # The reduced echelon basis of the span, which does not depend on the
    # order rows were inserted in: one polynomial per pivot, in column order
    # (total degree, then X-degree), with coefficient 1 at its leading
    # monomial and 0 at every other basis polynomial's leading monomial.
    basis_polys = []
    for row in basis.rows_sorted():
        poly = Poly({monomials[col]: coeff for col, coeff in row.items()})
        basis_polys.append(poly.to_json())
    one_row = to_row(P_ONE)
    return ClosureReport(
        dimension=basis.dimension,
        contains_one=basis.contains(one_row),
        truncated=truncated,
        index_bound=index_bound,
        degree_cap=degree_cap,
        basis=basis_polys,
    )
