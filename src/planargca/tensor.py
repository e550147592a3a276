"""Tensor products of a rank-one polynomial module with a restricted module.

A restricted module is accessed only through the two methods of
``RestrictedModule``: the generator action ``act`` and a sound
``annihilation_bound`` (an index beyond which every generator kills a
given vector).  Its vectors are ``ModuleVector``s: PBW monomials applied
to a cyclic vector w.  The trivial module is spanned by w alone, so its
vectors are the multiples c.w.

A ``TensorVector`` is a ``LinearCombination`` keyed by ((a, b), u): the
basis tensor X^a Y^b (x) u.w.  Monomials X^a Y^b and PBW monomials u are
bases of the two factors, so the coefficients are the tensor's exact
coordinates; the presentation is unique and sums, scaling and equality
are the shared sparse-vector operations.

The generator action is the usual one on a tensor product,

    g (p (x) v) = (g p) (x) v + p (x) (g v),

with centrals acting through the restricted side only (the polynomial side
kills them).

``tensor_closure_probe`` replays the concrete irreducibility moves for the
sigma-constant regime: recover the top Y-degree layer through a Vandermonde
system in the H-actions, walk the X-degree down using the inverted constant
sigma, and regenerate the monomial grid with two L-actions at different
indices, each step one identity on the top-degree part of the images.
With a non-constant sigma the X-descent is unavailable and the probe
reports that obstruction instead of forcing an answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .algebra import Generator, H, J, L
from .linalg import Matrix, matrix_inverse
from .omega import OmegaSpec, omega_act
from .pbw import MONOMIAL_ONE, PBWMonomial
from .poly import Poly
from .scalars import LinearCombination, Scalar, accumulate, scalar_pow
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

    def act(self, g: Generator, v: ModuleVector) -> ModuleVector:
        raise NotImplementedError

    def annihilation_bound(self, v: ModuleVector) -> int:
        raise NotImplementedError


class TrivialModule(RestrictedModule):
    """The one-dimensional module c.w on which every generator acts as zero;
    both methods refuse a vector with any monomial other than 1."""

    # Any bound works since all generators act by zero; -1 stands in for
    # "annihilated from the start" while keeping power computations small.
    SENTINEL_BOUND = -1

    @staticmethod
    def _require_multiple_of_w(v: ModuleVector) -> None:
        if any(u != MONOMIAL_ONE for u in v.terms):
            raise ValueError(f"{v} is not a multiple of w in the trivial module")

    def act(self, g: Generator, v: ModuleVector) -> ModuleVector:
        self._require_multiple_of_w(v)
        return ModuleVector.zero()

    def annihilation_bound(self, v: ModuleVector) -> int:
        self._require_multiple_of_w(v)
        return self.SENTINEL_BOUND


class WhittakerRestrictedModule(RestrictedModule):
    """A Whittaker module exposed through the restricted-module interface."""

    def __init__(self, datum: WhittakerDatum):
        self.datum = datum

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
    relations survive the wrapping.  A killed family still hands the vector
    to the inner module and discards the image, so the wrapper refuses
    exactly the vectors the inner module refuses, whatever the family.
    """

    def __init__(self, inner: RestrictedModule, killed: frozenset):
        self.inner = inner
        self.killed = killed

    def act(self, g: Generator, v: ModuleVector) -> ModuleVector:
        image = self.inner.act(g, v)
        return ModuleVector.zero() if g.family in self.killed else image

    def annihilation_bound(self, v: ModuleVector) -> int:
        return self.inner.annihilation_bound(v)


def lift_restricted(base: str, data: Optional[RestrictedModule] = None) -> RestrictedModule:
    """Construct a restricted module from one of the stock recipes.

    Lifts are closed: a lift of the trivial module is that module, and a
    lift of a lift is one ``LiftedModule`` killing both sets of families.
    """
    if base == "trivial":
        return TrivialModule()
    if base in _LIFT_KILLS:
        if data is None:
            raise ValueError(f"{base} needs an inner module to wrap")
        if isinstance(data, TrivialModule):
            return data
        if isinstance(data, LiftedModule):
            return LiftedModule(data.inner, data.killed | _LIFT_KILLS[base])
        return LiftedModule(data, _LIFT_KILLS[base])
    raise ValueError(f"unknown base {base!r}")


class TensorVector(LinearCombination):
    """Sum of basis tensors X^a Y^b (x) u.w, keyed by ((a, b), u)."""

    __slots__ = ()

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[Poly, ModuleVector]]
    ) -> "TensorVector":
        """``sum p (x) v``, expanded bilinearly over both bases."""
        out: Dict[Tuple[Tuple[int, int], PBWMonomial], Scalar] = {}
        for p, v in pairs:
            for mono, c in p.terms.items():
                for u, d in v.terms.items():
                    accumulate(out, (mono, u), c * d)
        return cls(out)

    def by_monomial(self) -> Dict[Tuple[int, int], ModuleVector]:
        """The restricted coordinate at each polynomial monomial."""
        rows: Dict[Tuple[int, int], Dict[PBWMonomial, Scalar]] = {}
        for (mono, u), c in self.terms.items():
            rows.setdefault(mono, {})[u] = c
        return {mono: ModuleVector(row) for mono, row in rows.items()}

    def x_degree(self) -> int:
        return max((a for (a, _), _ in self.terms), default=-1)

    def y_degree(self) -> int:
        return max((b for (_, b), _ in self.terms), default=-1)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda key: (key[0], str(key[1])))
        return " + ".join(
            f"{Poly.monomial(*mono, self.terms[mono, u])} (x) {u}.w"
            for mono, u in keys
        )


def tensor_act(
    spec: OmegaSpec,
    module: RestrictedModule,
    g: Generator,
    t: TensorVector,
) -> TensorVector:
    """Coproduct action: polynomial side plus restricted side, linearly."""
    pairs = []
    for mono, v in t.by_monomial().items():
        p = Poly.monomial(*mono)
        pairs += [(omega_act(spec, g, p), v), (p, module.act(g, v))]
    return TensorVector.from_pairs(pairs)


def _common_bound(module: RestrictedModule, t: TensorVector) -> int:
    return max(
        (module.annihilation_bound(v) for v in t.by_monomial().values()),
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
    images = [
        tensor_act(spec, module, H(m), t).scale(scalar_pow(spec.lam, -m))
        for m in indices
    ]
    vandermonde = Matrix(
        [
            [scalar_pow(Scalar(m), j) for j in range(y_degree + 1)]
            for m in indices
        ]
    )
    inverse = matrix_inverse(vandermonde)
    layers = [
        TensorVector.combine(zip(inverse.rows[j], images))
        for j in range(y_degree + 1)
    ]

    fresh = base + y_degree + 1
    reassembled = TensorVector.combine(
        (scalar_pow(Scalar(fresh), j), layer) for j, layer in enumerate(layers)
    )
    expected = tensor_act(spec, module, H(fresh), t).scale(
        scalar_pow(spec.lam, -fresh)
    )
    if reassembled != expected:
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

    The L step.  Take m above ``annihilation_bound(w)``, so L_m kills w and
    L_m (f (x) w) = (L_m f) (x) w, with L_m f = lam^m f(X, Y-m) (Y + m(eta
    + dx X)) in both sigma families.  For f = X^(i-1) Y^j,

        lam^-m L_m f = X^(i-1) (Y-m)^j (Y + m eta + m dx X),

    and (Y-m)^j is Y^j plus terms of lower degree, so the part of degree
    >= i + j of lam^-m L_m (X^(i-1) Y^j (x) w) is

        u(m) = (X^(i-1) Y^(j+1) + m dx X^i Y^j) (x) w.

    At two indices m1 != m2 above the bound, u(m1) - u(m2) = (m1 - m2) dx
    X^i Y^j (x) w, and u(m1) - m1 dx X^i Y^j (x) w is the sibling
    X^(i-1) Y^(j+1) (x) w.  Induction on the degree l = i + j: if the
    submodule generated by 1 (x) w holds every monomial tensor of degree
    below l, it holds the dropped lower part of each image, so it holds
    u(m1) and u(m2), hence X^i Y^j (x) w for i = 1..l (dx = +-1 is
    invertible) and, from i = 1, Y^l (x) w.  So 1 (x) w generates all of
    C[X, Y] (x) w, at every degree.  The proof covers every degree; the
    probe checks both identities at every (i, j) with 1 <= i <= i + j <=
    ``monomial_bound``, and ``monomials_generated`` counts the
    (B + 1)(B + 2)/2 monomials of degree at most B = ``monomial_bound``.
    """
    steps: List[str] = []
    if not seed:
        raise ValueError("seed must be nonzero")
    if spec.sigma_slot is None:
        return TensorProbeReport(
            reached_one_tensor=False,
            obstruction="the delta family has no inverse shift generator",
            monomial_bound=monomial_bound,
            monomials_generated=0,
            steps=["aborted: no I/J action available"],
        )
    family, dx = spec.sigma_slot

    # Already of the target shape?
    if seed.x_degree() == seed.y_degree() == 0:
        current = seed
        steps.append("seed already a pure tensor 1 (x) w")
    else:
        q = max(seed.y_degree(), 0)
        layers = vandermonde_extract(spec, module, seed, q)
        current = layers[q]
        steps.append(f"extracted top Y-layer at degree {q}")
        if not current:
            raise AssertionError("top Y-layer vanished; degree bookkeeping bug")
        if current.y_degree() > 0:
            raise AssertionError("top layer still involves Y; bug")

        if spec.sigma.total_degree() > 0:
            return TensorProbeReport(
                reached_one_tensor=False,
                obstruction="sigma is not an invertible constant",
                monomial_bound=monomial_bound,
                monomials_generated=0,
                steps=steps + ["X-descent unavailable"],
            )
        sigma_inv = spec.sigma.coeff(0, 0).inverse()
        while current.x_degree() > 0:
            degree_before = current.x_degree()
            m = _common_bound(module, current) + 1
            acted = tensor_act(spec, module, Generator(family, m), current)
            current = current - acted.scale(scalar_pow(spec.lam, -m) * sigma_inv)
            if current.x_degree() != degree_before - 1:
                raise AssertionError("X-descent failed to drop the degree")
            steps.append(f"lowered X-degree to {current.x_degree()}")

    coordinates = current.by_monomial()
    if list(coordinates) != [(0, 0)]:
        raise AssertionError("descent should end at a pure tensor 1 (x) w")
    w = coordinates[(0, 0)]
    steps.append("reached 1 (x) w")

    # Phase 3: regenerate the monomial grid from 1 (x) w.
    bound_w = module.annihilation_bound(w)
    m1, m2 = bound_w + 1, bound_w + 2

    def pure(i: int, j: int) -> TensorVector:
        return TensorVector.from_pairs([(Poly.monomial(i, j), w)])

    def l_top(m: int, i: int, j: int) -> TensorVector:
        """u(m): the part of degree >= i + j of lam^-m L_m (X^(i-1) Y^j (x) w)."""
        image = tensor_act(spec, module, L(m), pure(i - 1, j)).scale(
            scalar_pow(spec.lam, -m)
        )
        return TensorVector(
            {key: c for key, c in image.terms.items() if sum(key[0]) >= i + j}
        )

    for level in range(1, monomial_bound + 1):
        for i in range(1, level + 1):
            j = level - i
            u1 = l_top(m1, i, j)
            if u1 - l_top(m2, i, j) != pure(i, j).scale(Scalar((m1 - m2) * dx)):
                raise AssertionError(f"two-index L step failed at X^{i} Y^{j}")
            if u1 - pure(i, j).scale(Scalar(m1 * dx)) != pure(i - 1, j + 1):
                raise AssertionError(f"sibling recovery failed at X^{i-1} Y^{j+1}")
        steps.append(f"generated all monomials of total degree {level}")

    return TensorProbeReport(
        reached_one_tensor=True,
        obstruction=None,
        monomial_bound=monomial_bound,
        monomials_generated=(monomial_bound + 1) * (monomial_bound + 2) // 2,
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
    if not t:
        return "locally_finite"
    base = _common_bound(module, t)
    outcomes = [
        not tensor_act(spec, module, J(m), t) for m in range(base + 1, base + 6)
    ]
    if all(outcomes):
        return "locally_finite"
    if not any(outcomes):
        return "injective_tail"
    raise Inconclusive("J-probe returned mixed results")
