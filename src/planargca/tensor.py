"""Tensor products of a rank-one polynomial module with a restricted module.

A restricted module is accessed only through the six methods of
``RestrictedModule``: ``zero``, ``is_zero``, ``add``, ``scale``, the
generator action ``act``, and a sound ``annihilation_bound`` (an index
beyond which every generator kills a given vector).  Tensor
vectors are kept as finite lists of (polynomial, vector) pairs with
linearly independent polynomial parts; canonicalization decomposes over
the monomial basis, merging the restricted vectors per monomial, which is
the unique presentation-independent form, so equality testing is exact.

The generator action is the usual one on a tensor product,

    g (p (x) v) = (g p) (x) v + p (x) (g v),

with centrals acting through the restricted side only (the polynomial side
kills them).

``tensor_closure_probe`` replays the concrete irreducibility moves for the
sigma-constant regime: recover the top Y-degree layer through a Vandermonde
system in the H-actions, walk the X-degree down using the inverted constant
sigma, and regenerate the monomial grid with two L-actions at different
indices.  With a non-constant sigma the X-descent is unavailable and the
probe reports that obstruction instead of forcing an answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import Generator, H, I, J, L
from .linalg import Matrix, matrix_inverse
from .omega import OmegaSpec, omega_act
from .poly import Poly
from .scalars import ONE, ZERO, Scalar, scalar_pow
from .whittaker import ModuleVector, WhittakerDatum, annihilation_bound, whittaker_act

__all__ = [
    "DegenerateSystem",
    "Inconclusive",
    "RestrictedModule",
    "TrivialModule",
    "WhittakerRestrictedModule",
    "LiftedModule",
    "lift_restricted",
    "TensorVector",
    "tensor_canonical",
    "tensor_add",
    "tensor_scale",
    "tensor_eq",
    "tensor_act",
    "vandermonde_extract",
    "TensorProbeReport",
    "tensor_closure_probe",
    "j_nilpotency_witness",
]


class DegenerateSystem(ValueError):
    """The declared Y-degree does not reproduce the H-action."""


class Inconclusive(RuntimeError):
    """The J-probe returned mixed results, which no pure family produces."""


class RestrictedModule:
    """Interface a restricted module must provide.

    ``annihilation_bound(v)`` must be sound: every generator with index
    strictly above the bound kills ``v``.
    """

    def zero(self):
        raise NotImplementedError

    def is_zero(self, v) -> bool:
        raise NotImplementedError

    def add(self, u, v):
        raise NotImplementedError

    def scale(self, coeff: Scalar, v):
        raise NotImplementedError

    def act(self, g: Generator, v):
        raise NotImplementedError

    def annihilation_bound(self, v) -> int:
        raise NotImplementedError


class TrivialModule(RestrictedModule):
    """The one-dimensional module on which every generator acts as zero."""

    # Any bound works since all generators act by zero; -1 stands in for
    # "annihilated from the start" while keeping power computations small.
    SENTINEL_BOUND = -1

    def zero(self) -> Scalar:
        return ZERO

    def is_zero(self, v: Scalar) -> bool:
        return not v

    def add(self, u: Scalar, v: Scalar) -> Scalar:
        return u + v

    def scale(self, coeff: Scalar, v: Scalar) -> Scalar:
        return coeff * v

    def act(self, g: Generator, v: Scalar) -> Scalar:
        return ZERO

    def annihilation_bound(self, v: Scalar) -> int:
        return self.SENTINEL_BOUND


class WhittakerRestrictedModule(RestrictedModule):
    """A Whittaker module exposed through the restricted-module interface."""

    def __init__(self, datum: WhittakerDatum):
        self.datum = datum

    def zero(self) -> ModuleVector:
        return ModuleVector.zero()

    def is_zero(self, v: ModuleVector) -> bool:
        return not v

    def add(self, u: ModuleVector, v: ModuleVector) -> ModuleVector:
        return u + v

    def scale(self, coeff: Scalar, v: ModuleVector) -> ModuleVector:
        return v.scale(coeff)

    def act(self, g: Generator, v: ModuleVector) -> ModuleVector:
        return whittaker_act(self.datum, g, v)

    def annihilation_bound(self, v: ModuleVector) -> int:
        return annihilation_bound(self.datum, v)


_LIFT_KILLS = {
    # Keep the L family and its central charge; everything else acts as zero.
    "virasoro_style": frozenset({"H", "I", "J", "c2", "c3"}),
    # Keep L and H with all central charges; kill the abelian I/J ideal.
    "heisenberg_virasoro_style": frozenset({"I", "J"}),
}


class LiftedModule(RestrictedModule):
    """Wrap an inner module, forcing chosen families to act as zero.

    The killed families span an ideal acting by zero, so the bracket
    relations survive the wrapping.
    """

    def __init__(self, inner: RestrictedModule, killed: frozenset):
        self.inner = inner
        self.killed = killed

    def zero(self):
        return self.inner.zero()

    def is_zero(self, v) -> bool:
        return self.inner.is_zero(v)

    def add(self, u, v):
        return self.inner.add(u, v)

    def scale(self, coeff: Scalar, v):
        return self.inner.scale(coeff, v)

    def act(self, g: Generator, v):
        if g.family in self.killed:
            return self.inner.zero()
        return self.inner.act(g, v)

    def annihilation_bound(self, v) -> int:
        return self.inner.annihilation_bound(v)


def lift_restricted(base: str, data: Optional[RestrictedModule] = None) -> RestrictedModule:
    """Construct a restricted module from one of the stock recipes."""
    if base == "trivial":
        return TrivialModule()
    if base in _LIFT_KILLS:
        if data is None:
            raise ValueError(f"{base} needs an inner module to wrap")
        return LiftedModule(data, _LIFT_KILLS[base])
    raise ValueError(f"unknown base {base!r}")


class TensorVector:
    """Canonical list of (polynomial, restricted vector) pairs.

    The canonical presentation keys the pairs by single monomials: the
    vector paired with X^a Y^b is the tensor's exact coordinate there.
    Distinct monomials are trivially linearly independent, the form is
    unique (no dependence on how the tensor was assembled), and the X/Y
    degrees read off the true tensor.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Sequence[Tuple[Poly, object]]):
        self.pairs: Tuple[Tuple[Poly, object], ...] = tuple(pairs)

    def is_zero(self) -> bool:
        return not self.pairs

    def x_degree(self) -> int:
        return max((p.x_degree() for p, _ in self.pairs), default=-1)

    def y_degree(self) -> int:
        return max((p.y_degree() for p, _ in self.pairs), default=-1)


def tensor_canonical(
    module: RestrictedModule, pairs: Sequence[Tuple[Poly, object]]
) -> TensorVector:
    """Decompose over the monomial basis and drop zero coordinates.

    Expanding every pair over its monomials and merging the restricted
    vectors per monomial yields the tensor's coordinates with respect to
    the monomial basis of the polynomial side; this is independent of the
    incoming presentation, so two equal tensors canonicalize identically.
    """
    by_monomial: Dict[Tuple[int, int], object] = {}
    for p, v in pairs:
        if module.is_zero(v):
            continue
        for mono, coeff in p.terms.items():
            scaled = module.scale(coeff, v)
            if mono in by_monomial:
                by_monomial[mono] = module.add(by_monomial[mono], scaled)
            else:
                by_monomial[mono] = scaled
    rows = [
        (Poly.monomial(*mono), w)
        for mono, w in sorted(by_monomial.items())
        if not module.is_zero(w)
    ]
    return TensorVector(rows)


def tensor_add(
    module: RestrictedModule, t1: TensorVector, t2: TensorVector
) -> TensorVector:
    return tensor_canonical(module, list(t1.pairs) + list(t2.pairs))


def tensor_scale(
    module: RestrictedModule, coeff: Scalar, t: TensorVector
) -> TensorVector:
    if not coeff:
        return TensorVector(())
    return tensor_canonical(
        module, [(p.scale(coeff), v) for p, v in t.pairs]
    )


def tensor_eq(
    module: RestrictedModule, t1: TensorVector, t2: TensorVector
) -> bool:
    difference = tensor_add(module, t1, tensor_scale(module, -ONE, t2))
    return difference.is_zero()


def tensor_act(
    spec: OmegaSpec,
    module: RestrictedModule,
    g: Generator,
    t: TensorVector,
) -> TensorVector:
    """Coproduct action: polynomial side plus restricted side, linearly."""
    pairs: List[Tuple[Poly, object]] = []
    for p, v in t.pairs:
        acted_poly = omega_act(spec, g, p)
        if acted_poly:
            pairs.append((acted_poly, v))
        acted_vec = module.act(g, v)
        if not module.is_zero(acted_vec):
            pairs.append((p, acted_vec))
    return tensor_canonical(module, pairs)


def _common_bound(module: RestrictedModule, t: TensorVector) -> int:
    return max(
        (module.annihilation_bound(v) for _, v in t.pairs),
        default=TrivialModule.SENTINEL_BOUND,
    )


def vandermonde_extract(
    spec: OmegaSpec,
    module: RestrictedModule,
    t: TensorVector,
    y_degree: int,
) -> List[TensorVector]:
    """Split ``t`` into its Y-degree layers through H-actions.

    Applying lam^-m H_m for y_degree+1 values of m above the common
    annihilation bound writes the results as sum_j m^j v_j; the coefficient
    matrix in the unknowns v_j is Vandermonde, hence exactly invertible.
    A reassembly check at a fresh index guards against a misdeclared
    degree and raises ``DegenerateSystem``.
    """
    if y_degree < 0:
        raise ValueError("y_degree must be non-negative")
    base = _common_bound(module, t) + 1
    indices = [base + r for r in range(y_degree + 1)]
    images = []
    for m in indices:
        acted = tensor_act(spec, module, H(m), t)
        images.append(tensor_scale(module, scalar_pow(spec.lam, -m), acted))
    vandermonde = Matrix(
        [
            [scalar_pow(Scalar(m), j) for j in range(y_degree + 1)]
            for m in indices
        ]
    )
    inverse = matrix_inverse(vandermonde)
    layers: List[TensorVector] = []
    for j in range(y_degree + 1):
        combined: List[Tuple[Poly, object]] = []
        for r, image in enumerate(images):
            coeff = inverse.rows[j][r]
            if coeff:
                combined.extend(
                    (p.scale(coeff), v) for p, v in image.pairs
                )
        layers.append(tensor_canonical(module, combined))

    fresh = base + y_degree + 1
    reassembled: List[Tuple[Poly, object]] = []
    for j, layer in enumerate(layers):
        coeff = scalar_pow(Scalar(fresh), j)
        reassembled.extend((p.scale(coeff), v) for p, v in layer.pairs)
    expected = tensor_scale(
        module,
        scalar_pow(spec.lam, -fresh),
        tensor_act(spec, module, H(fresh), t),
    )
    if not tensor_eq(module, tensor_canonical(module, reassembled), expected):
        raise DegenerateSystem(
            "the declared y_degree does not reproduce the H-action"
        )
    return layers


@dataclass
class TensorProbeReport:
    reached_one_tensor: bool
    obstruction: Optional[str]
    monomial_bound: int
    monomials_generated: int
    steps: List[str]


def _constant_sigma(spec: OmegaSpec) -> Optional[Scalar]:
    if spec.sigma is None:
        return None
    if spec.sigma.total_degree() > 0:
        return None
    return spec.sigma.coeff(0, 0)


def tensor_closure_probe(
    spec: OmegaSpec,
    module: RestrictedModule,
    seed: TensorVector,
    monomial_bound: int,
) -> TensorProbeReport:
    """Drive a seed down to a pure tensor and regenerate the monomial grid.

    Phase 1 extracts the top Y-layer by the Vandermonde trick; its
    polynomial parts are pure powers of X.  Phase 2 lowers the X-degree one
    step at a time using t - lam^-m sigma^-1 I_m t (or the J/X+1 variant),
    which needs sigma to be an invertible constant; if it is not, the probe
    stops and reports the obstruction.  Phase 3 starts from the reached
    1 (x) w and derives every X^i Y^j (x) w with i + j up to the bound from
    two L-actions at distinct indices, checking each step exactly.
    """
    steps: List[str] = []
    if seed.is_zero():
        raise ValueError("seed must be nonzero")
    if spec.variant == "sigma_zero":
        lower_gen: Callable[[int], Generator] = I
        lower_shift_sign = -1
    elif spec.variant == "zero_sigma":
        lower_gen = J
        lower_shift_sign = 1
    else:
        return TensorProbeReport(
            reached_one_tensor=False,
            obstruction="the delta family has no inverse shift generator",
            monomial_bound=monomial_bound,
            monomials_generated=0,
            steps=["aborted: no I/J action available"],
        )

    # Already of the target shape?
    if len(seed.pairs) == 1 and seed.pairs[0][0].total_degree() == 0:
        current = seed
        steps.append("seed already a pure tensor 1 (x) w")
    else:
        q = max(seed.y_degree(), 0)
        layers = vandermonde_extract(spec, module, seed, q)
        current = layers[q]
        steps.append(f"extracted top Y-layer at degree {q}")
        if current.is_zero():
            raise AssertionError("top Y-layer vanished; degree bookkeeping bug")
        if current.y_degree() > 0:
            raise AssertionError("top layer still involves Y; bug")

        sigma_const = _constant_sigma(spec)
        if sigma_const is None:
            return TensorProbeReport(
                reached_one_tensor=False,
                obstruction="sigma is not an invertible constant",
                monomial_bound=monomial_bound,
                monomials_generated=0,
                steps=steps + ["X-descent unavailable"],
            )
        sigma_inv = sigma_const.inverse()
        while current.x_degree() > 0:
            degree_before = current.x_degree()
            m = _common_bound(module, current) + 1
            acted = tensor_act(spec, module, lower_gen(m), current)
            correction = tensor_scale(
                module, scalar_pow(spec.lam, -m) * sigma_inv, acted
            )
            current = tensor_add(
                module, current, tensor_scale(module, -ONE, correction)
            )
            if current.x_degree() != degree_before - 1:
                raise AssertionError("X-descent failed to drop the degree")
            steps.append(f"lowered X-degree to {current.x_degree()}")

    if current.is_zero() or len(current.pairs) != 1:
        raise AssertionError("descent should end at a single pure tensor")
    final_poly, w = current.pairs[0]
    if final_poly.total_degree() != 0:
        raise AssertionError("descent should end at a constant polynomial")
    # Normalize to literally 1 (x) w.
    w = module.scale(final_poly.coeff(0, 0), w)
    steps.append("reached 1 (x) w")

    # Phase 3: regenerate the monomial grid from 1 (x) w.
    bound_w = module.annihilation_bound(w)
    m1, m2 = bound_w + 1, bound_w + 2
    known: Dict[Tuple[int, int], bool] = {(0, 0): True}

    def reduce_known(t: TensorVector) -> TensorVector:
        kept = []
        for p, v in t.pairs:
            trimmed = Poly(
                {mon: c for mon, c in p.terms.items() if mon not in known}
            )
            if trimmed:
                kept.append((trimmed, v))
        return tensor_canonical(module, kept)

    def pure(i: int, j: int) -> TensorVector:
        return tensor_canonical(module, [(Poly.monomial(i, j), w)])

    for level in range(1, monomial_bound + 1):
        for i in range(1, level + 1):
            j = level - i
            parent = pure(i - 1, j)
            u1 = reduce_known(
                tensor_scale(
                    module,
                    scalar_pow(spec.lam, -m1),
                    tensor_act(spec, module, L(m1), parent),
                )
            )
            u2 = reduce_known(
                tensor_scale(
                    module,
                    scalar_pow(spec.lam, -m2),
                    tensor_act(spec, module, L(m2), parent),
                )
            )
            # After reduction both must be supported on exactly the two
            # unknown monomials X^{i-1} Y^{j+1} and X^i Y^j.
            difference = tensor_add(
                module, u1, tensor_scale(module, -ONE, u2)
            )
            target = tensor_scale(
                module,
                Scalar(m2 - m1) * (ONE if spec.variant == "sigma_zero" else -ONE),
                pure(i, j),
            )
            if not tensor_eq(module, difference, target):
                raise AssertionError(
                    f"two-index L step failed at X^{i} Y^{j}"
                )
            known[(i, j)] = True
            # The sibling monomial falls out of either image for free,
            # unless an earlier step of this level already produced it
            # (then reduction stripped it from u1 and there is nothing
            # left to recover).
            if (i - 1, j + 1) not in known:
                sibling = tensor_add(
                    module,
                    u1,
                    tensor_scale(
                        module,
                        Scalar(m1)
                        * (ONE if spec.variant == "sigma_zero" else -ONE),
                        pure(i, j),
                    ),
                )
                if not tensor_eq(module, sibling, pure(i - 1, j + 1)):
                    raise AssertionError(
                        f"sibling recovery failed at X^{i-1} Y^{j+1}"
                    )
                known[(i - 1, j + 1)] = True
        steps.append(f"generated all monomials of total degree {level}")

    generated = sum(1 for _ in known)
    return TensorProbeReport(
        reached_one_tensor=True,
        obstruction=None,
        monomial_bound=monomial_bound,
        monomials_generated=generated,
        steps=steps,
    )


def j_nilpotency_witness(
    spec: OmegaSpec, module: RestrictedModule, t: TensorVector
) -> str:
    """Classify the tail behaviour of the J-actions on a tensor vector.

    Probes J_m for five indices above the annihilation bound: all zero
    means the J-family acts locally finitely (the sigma-on-I family), all
    nonzero means the tail is injective (the sigma-on-J family).  Mixed
    results cannot happen for a well-formed module and raise
    ``Inconclusive``.  The zero vector counts as locally finite.
    """
    if t.is_zero():
        return "locally_finite"
    base = _common_bound(module, t)
    outcomes = []
    for m in range(base + 1, base + 6):
        image = tensor_act(spec, module, J(m), t)
        outcomes.append(image.is_zero())
    if all(outcomes):
        return "locally_finite"
    if not any(outcomes):
        return "injective_tail"
    raise Inconclusive("J-probe returned mixed results")
