import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planargca import omega
from planargca.algebra import C1, C2, C3, Generator, H, I, J, L, bracket_basis, gen_key
from planargca.omega import OmegaSpec
from planargca.pbw import MONOMIAL_ONE, PBWMonomial
from planargca.poly import P_ONE, Poly, X, Y
from planargca.scalars import ONE, Scalar, sc, scalar_pow
from planargca.tensor import (
    _LIFT_KILLS,
    DegenerateSystem,
    LiftedModule,
    TensorVector,
    TrivialModule,
    WhittakerRestrictedModule,
    j_nilpotency_witness,
    lift_restricted,
    tensor_act,
    tensor_closure_probe,
    vandermonde_extract,
)
from planargca.whittaker import ModuleVector, validate_whittaker, whittaker_act


def sigma_zero(lam=sc(2), eta=sc(0), sigma=P_ONE):
    return OmegaSpec(variant="sigma_zero", lam=lam, eta=eta, sigma=sigma)


def zero_sigma(lam=sc(2), eta=sc(0), sigma=P_ONE):
    return OmegaSpec(variant="zero_sigma", lam=lam, eta=eta, sigma=sigma)


def whittaker_module():
    return WhittakerRestrictedModule(
        validate_whittaker({"I[1]": "1", "J[1]": "1"}, 1, 1)
    )


def mono(*factors):
    return PBWMonomial(tuple(factors))


def cw(value):
    """The trivial module's vector value * w."""
    return ModuleVector.cyclic(sc(value))


def one_tensor(w):
    return TensorVector.from_pairs([(P_ONE, w)])


# -- canonical form -------------------------------------------------------------

# -- canonical form -------------------------------------------------------------


def test_canonical_drops_zero_pairs():
    t = TensorVector.from_pairs(
        [(X, ModuleVector.zero()), (Poly(), cw(1)), (Y, cw(0))]
    )
    assert not t
    assert t.terms == {}


def test_canonical_merges_dependent_polynomials():
    t = TensorVector.from_pairs([(X, cw(1)), (X.scale(sc(2)), cw(3))])
    # X (x) 1 + 2X (x) 3 = X (x) 7.
    assert t.terms == {((1, 0), MONOMIAL_ONE): sc(7)}
    assert t.by_monomial() == {(1, 0): cw(7)}


def test_canonical_form_is_presentation_independent():
    # The Y^2 coordinates cancel, so the true tensor is
    # X^3 (x) 1 + X^2 Y (x) 1 and the reported Y-degree must be 1.
    pairs = [(X * X * X + Y * Y, cw(1)), (Y * X * X - Y * Y, cw(1))]
    t = TensorVector.from_pairs(pairs)
    assert t.y_degree() == 1
    assert set(t.terms) == {((2, 1), MONOMIAL_ONE), ((3, 0), MONOMIAL_ONE)}
    assert TensorVector.from_pairs(reversed(pairs)).terms == t.terms
    assert str(t) == "(1)X^2Y (x) 1.w + (1)X^3 (x) 1.w"


def test_canonical_eq_independent_of_presentation():
    w = ModuleVector.cyclic()
    u = ModuleVector({mono((I(0), 1)): ONE})
    t1 = TensorVector.from_pairs([(X + Y, w), (X, u)])
    t2 = TensorVector.from_pairs([(Y, w), (X, w), (X, u)])
    assert t1 == t2
    assert t1 != t2.scale(sc(2))


# -- actions --------------------------------------------------------------------


def test_trivial_module_reduces_to_polynomial_action():
    module = TrivialModule()
    spec = sigma_zero()
    t = one_tensor(cw(1))
    from planargca.omega import omega_act

    for g in (L(1), H(-2), I(0), J(3)):
        acted = tensor_act(spec, module, g, t)
        expected = TensorVector.from_pairs([(omega_act(spec, g, P_ONE), cw(1))])
        assert acted == expected


def test_j_kills_both_sides_on_sigma_zero_whittaker():
    module = whittaker_module()
    spec = sigma_zero()
    t = one_tensor(ModuleVector.cyclic())
    assert not tensor_act(spec, module, J(3), t)


def test_j_action_on_zero_sigma_trivial():
    module = TrivialModule()
    spec = zero_sigma()
    t = one_tensor(cw(1))
    acted = tensor_act(spec, module, J(3), t)
    assert acted == t.scale(sc(8))


def test_central_acts_through_restricted_side():
    datum = validate_whittaker({"I[1]": "1", "J[1]": "1", "c1": "1/2"}, 1, 1)
    module = WhittakerRestrictedModule(datum)
    spec = sigma_zero()
    t = one_tensor(ModuleVector.cyclic())
    acted = tensor_act(spec, module, C1, t)
    assert acted == t.scale(sc(Fraction(1, 2)))


RICH_DATUM = {
    "I[1]": "1", "J[1]": "2", "L[1]": "3", "H[1]": "-1",
    "c1": "1/2", "c2": "1/5", "c3": "1/3",
}


def axiom_modules():
    rich = WhittakerRestrictedModule(validate_whittaker(RICH_DATUM, 1, 1))
    return [
        TrivialModule(),
        # Built directly: lift_restricted returns the trivial module itself.
        LiftedModule(TrivialModule(), _LIFT_KILLS["virasoro_style"]),
        whittaker_module(),
        rich,
        lift_restricted("virasoro_style", rich),
        lift_restricted("heisenberg_virasoro_style", rich),
    ]


def spanned_by_w(module):
    """Whether the module is the trivial one, lifted or not."""
    while isinstance(module, LiftedModule):
        module = module.inner
    return isinstance(module, TrivialModule)


AXIOM_GENERATORS = [
    Generator(fam, idx) for fam in "LHIJ" for idx in range(-3, 4)
] + [C1, C2, C3]

_small = st.builds(
    lambda num, den: sc(Fraction(num, den)),
    st.integers(-3, 3).filter(bool),
    st.integers(1, 3),
)
# Free generators at (m, n) = (1, 1): every family below index 1.
_free = st.builds(Generator, st.sampled_from("LHIJ"), st.integers(-1, 0))


def draw_poly(draw):
    return Poly.combine(
        (draw(_small), Poly.monomial(draw(st.integers(0, 2)), draw(st.integers(0, 2))))
        for _ in range(draw(st.integers(1, 2)))
    )


def draw_vector(draw, module):
    if spanned_by_w(module):
        return ModuleVector.cyclic(draw(_small))
    return ModuleVector.combine(
        (
            draw(_small),
            ModuleVector.single(PBWMonomial.from_word(
                sorted(draw(st.lists(_free, max_size=3)), key=gen_key)
            )),
        )
        for _ in range(draw(st.integers(1, 2)))
    )


def draw_pairs(draw, module):
    return [
        (draw_poly(draw), draw_vector(draw, module))
        for _ in range(draw(st.integers(1, 3)))
    ]


@st.composite
def axiom_cases(draw):
    spec = draw(st.sampled_from(
        [sigma_zero(eta=sc(1, 3)), zero_sigma(eta=sc(1, 3)), sigma_zero(sigma=X)]
    ))
    module = draw(st.sampled_from(axiom_modules()))
    t = TensorVector.from_pairs(draw_pairs(draw, module))
    brackets = []
    for _ in range(4):
        g1 = draw(st.sampled_from(AXIOM_GENERATORS))
        g2 = draw(st.sampled_from(AXIOM_GENERATORS))
        if not (g1.is_central or g2.is_central) and draw(st.booleans()):
            # Opposite indices reach the central terms of the brackets.
            g2 = Generator(g2.family, -g1.index)
        brackets.append((g1, g2))
    return spec, module, t, brackets


@settings(max_examples=150, deadline=None, derandomize=True)
@given(axiom_cases())
def test_tensor_module_axiom_sampled(case):
    # [g1, g2] . t = g1 . g2 . t - g2 . g1 . t on random 1-3-pair tensors,
    # over the trivial module, its lift, two Whittaker modules and both
    # lifts of the richer one.
    spec, module, t, brackets = case
    for g1, g2 in brackets:
        lhs = TensorVector.combine(
            (coeff, tensor_act(spec, module, g, t))
            for g, coeff in bracket_basis(g1, g2).terms.items()
        )
        rhs = tensor_act(spec, module, g1, tensor_act(spec, module, g2, t)) - (
            tensor_act(spec, module, g2, tensor_act(spec, module, g1, t))
        )
        assert lhs == rhs, (str(g1), str(g2))


@st.composite
def pair_cases(draw):
    module = draw(st.sampled_from(axiom_modules()))
    pairs = draw_pairs(draw, module)
    p, v = draw_poly(draw), draw_vector(draw, module)
    q, u = draw_poly(draw), draw_vector(draw, module)
    split = draw(st.integers(0, len(pairs)))
    return pairs, split, p, q, v, u, draw(_small)


def stores_no_zero(t):
    return all(t.terms.values())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pair_cases())
def test_from_pairs_is_bilinear_and_presentation_free(case):
    pairs, split, p, q, v, u, c = case
    build = TensorVector.from_pairs
    # Bilinear in the polynomial and in the restricted vector.
    assert build([(p + q.scale(c), v)]) == build([(p, v)]) + build([(q, v)]).scale(c)
    assert build([(p, v + u.scale(c))]) == build([(p, v)]) + build([(p, u)]).scale(c)
    # Independent of how the input pairs are split, ordered or presented.
    t = build(pairs)
    assert build(pairs[:split]) + build(pairs[split:]) == t
    assert build(reversed(pairs)).terms == t.terms
    # Each pair (a, b) presented again as (a, b + u) and (a, -u).
    resplit = [(a, b + u) for a, b in pairs] + [(a, -u) for a, _ in pairs]
    assert build(resplit) == t
    assert build(
        (Poly.monomial(*mono), w) for mono, w in t.by_monomial().items()
    ) == t
    # No zero is ever stored, including after exact cancellation.
    cancelled = build(pairs + [(-a, b) for a, b in pairs])
    assert cancelled.terms == {}
    for vector in (t, cancelled, build([(p, v), (q, u)]), build([(p - p, v)])):
        assert stores_no_zero(vector)


# -- Vandermonde extraction -------------------------------------------------------


def test_vandermonde_linear_example():
    module = whittaker_module()
    spec = sigma_zero()
    w = ModuleVector.cyclic()
    t = TensorVector.from_pairs([(Y, w)])
    layers = vandermonde_extract(spec, module, t, 1)
    assert layers[0] == TensorVector.from_pairs([(X * Y, w)])
    assert layers[1] == TensorVector.from_pairs([(X.scale(sc(-1)), w)])


def test_vandermonde_constant_case():
    module = whittaker_module()
    spec = sigma_zero()
    t = one_tensor(ModuleVector.cyclic())
    layers = vandermonde_extract(spec, module, t, 0)
    assert layers[0] == TensorVector.from_pairs([(X, ModuleVector.cyclic())])


def test_vandermonde_top_layer_shape():
    # The top layer collects (-1)^q X^{i+1} (x) v_iq over the top Y-slice.
    module = whittaker_module()
    spec = sigma_zero()
    w = ModuleVector.cyclic()
    u = ModuleVector({mono((I(0), 1)): ONE})
    t = TensorVector.from_pairs(
        [(Y * Y, w), (X * Y * Y, u), (X * Y, w), (P_ONE, u)]
    )
    layers = vandermonde_extract(spec, module, t, 2)
    expected_top = TensorVector.from_pairs([(X, w), (X * X, u)])
    assert layers[2] == expected_top


def test_vandermonde_reassembles_fresh_indices():
    module = whittaker_module()
    spec = sigma_zero(eta=sc(1, 3))
    w = ModuleVector.cyclic()
    t = TensorVector.from_pairs([(X * Y + Y * Y, w), (X, w)])
    layers = vandermonde_extract(spec, module, t, 2)
    from planargca.scalars import scalar_pow

    base = max(module.annihilation_bound(w), 0)
    for fresh in (base + 10, base + 11, base + 13):
        expected = tensor_act(spec, module, H(fresh), t).scale(
            scalar_pow(spec.lam, -fresh)
        )
        reassembled = TensorVector.combine(
            (scalar_pow(sc(fresh), j), layer) for j, layer in enumerate(layers)
        )
        assert reassembled == expected


def test_vandermonde_rejects_understated_degree():
    module = whittaker_module()
    spec = sigma_zero()
    t = TensorVector.from_pairs([(Y * Y, ModuleVector.cyclic())])
    with pytest.raises(DegenerateSystem):
        vandermonde_extract(spec, module, t, 1)


# -- closure probe ----------------------------------------------------------------


def test_closure_probe_reaches_pure_tensor():
    module = whittaker_module()
    spec = sigma_zero()
    seed = TensorVector.from_pairs([(X * X * Y, ModuleVector.cyclic())])
    report = tensor_closure_probe(spec, module, seed, 3)
    assert report.reached_one_tensor
    assert report.obstruction is None
    assert report.monomials_generated == 10


def test_closure_probe_zero_sigma_variant():
    module = TrivialModule()
    spec = zero_sigma(eta=sc(1, 3))
    seed = TensorVector.from_pairs([(X * Y + X, cw(1))])
    report = tensor_closure_probe(spec, module, seed, 2)
    assert report.reached_one_tensor


def test_closure_probe_immediate_for_pure_seed():
    module = whittaker_module()
    spec = sigma_zero()
    seed = one_tensor(ModuleVector.cyclic())
    report = tensor_closure_probe(spec, module, seed, 2)
    assert report.reached_one_tensor
    assert "seed already a pure tensor 1 (x) w" in report.steps


def test_closure_probe_reports_nonconstant_sigma_obstruction():
    module = whittaker_module()
    spec = sigma_zero(sigma=X)
    seed = TensorVector.from_pairs([(X * X * Y, ModuleVector.cyclic())])
    report = tensor_closure_probe(spec, module, seed, 3)
    assert not report.reached_one_tensor
    assert report.obstruction == "sigma is not an invertible constant"


def test_closure_probe_delta_family_obstruction():
    module = TrivialModule()
    spec = OmegaSpec(variant="delta_only", lam=sc(2), delta=X)
    seed = TensorVector.from_pairs([(Y, cw(1))])
    report = tensor_closure_probe(spec, module, seed, 2)
    assert not report.reached_one_tensor
    assert report.obstruction is not None


_complex = st.builds(
    lambda re, im: sc(Fraction(*re), Fraction(*im)),
    st.tuples(st.integers(-3, 3), st.integers(1, 3)),
    st.tuples(st.integers(-3, 3), st.integers(1, 3)),
)


@st.composite
def constant_sigma_probes(draw):
    variant = draw(st.sampled_from(["sigma_zero", "zero_sigma"]))
    spec = OmegaSpec(
        variant=variant,
        lam=draw(_complex.filter(bool)),
        eta=draw(_complex),
        sigma=Poly.monomial(0, 0, draw(_complex.filter(bool))),
    )
    module = draw(st.sampled_from(axiom_modules()))
    if draw(st.booleans()):
        seed = one_tensor(draw_vector(draw, module))
    else:
        seed = TensorVector.from_pairs(draw_pairs(draw, module))
    return spec, module, seed, draw(st.integers(1, 3))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(constant_sigma_probes())
def test_closure_probe_regenerates_every_monomial(case):
    # Both sigma families with a constant sigma, complex lam, eta and
    # sigma, over the trivial module, two Whittaker modules and the lifts;
    # pure seeds 1 (x) v and sums of one to three pairs.  Every L step
    # holds, so the probe generates the whole grid of degree at most B.
    spec, module, seed, bound = case
    assume(seed)
    report = tensor_closure_probe(spec, module, seed, bound)
    assert report.reached_one_tensor and report.obstruction is None
    assert report.monomials_generated == (bound + 1) * (bound + 2) // 2
    assert report.steps[-bound:] == [
        f"generated all monomials of total degree {level}" for level in range(1, bound + 1)
    ]


TRUE_FACTORS = omega.action_factors


def doubled_l_shift(spec, g):
    """``action_factors`` with L's multiplier Y + m(eta + 2 dx X)."""
    table = TRUE_FACTORS(spec, g)
    if g.family != "L":
        return table
    multiplier, dx, dy = table
    extra = scalar_pow(spec.lam, g.index) * Scalar(g.index * spec.sigma_slot[1])
    return multiplier + Poly.monomial(1, 0, extra), dx, dy


@pytest.mark.parametrize("spec", [sigma_zero(eta=sc(1, 3)), zero_sigma(lam=sc(1, 1))])
@pytest.mark.parametrize(
    "module", [TrivialModule(), whittaker_module()], ids=["trivial", "whittaker"]
)
def test_closure_probe_refuses_a_wrong_l_action(spec, module):
    # The polynomial module with L_m f = lam^m f(X, Y-m) (Y + m(eta + 2 dx
    # X)) breaks the L step at once: u(m1) - u(m2) is twice the expected
    # multiple of X (x) w.
    seed = TensorVector.from_pairs([(X * Y + P_ONE, ModuleVector.cyclic())])
    with mock.patch.object(omega, "action_factors", doubled_l_shift):
        with pytest.raises(AssertionError, match=r"L step failed at X\^1 Y\^0$"):
            tensor_closure_probe(spec, module, seed, 2)


# -- J-tail classification ----------------------------------------------------------


def test_j_witness_locally_finite():
    module = whittaker_module()
    spec = sigma_zero()
    t = one_tensor(ModuleVector.cyclic())
    assert j_nilpotency_witness(spec, module, t) == "locally_finite"


def test_j_witness_injective_tail():
    module = TrivialModule()
    spec = zero_sigma()
    t = one_tensor(cw(1))
    assert j_nilpotency_witness(spec, module, t) == "injective_tail"


def test_j_witness_zero_vector_convention():
    module = TrivialModule()
    spec = zero_sigma()
    assert j_nilpotency_witness(spec, module, TensorVector()) == "locally_finite"


def test_j_witness_separates_variants_on_samples():
    whit = whittaker_module()
    cases = [
        (sigma_zero(), whit, ModuleVector.cyclic(), "locally_finite"),
        (sigma_zero(eta=sc(1, 3)), TrivialModule(), cw(1), "locally_finite"),
        (zero_sigma(), whit, ModuleVector.cyclic(), "injective_tail"),
        (zero_sigma(eta=sc(1, 3)), TrivialModule(), cw(1), "injective_tail"),
    ]
    for spec, module, w, expected in cases:
        t = TensorVector.from_pairs([(X + P_ONE, w), (Y, w)])
        assert j_nilpotency_witness(spec, module, t) == expected


# -- restricted-module constructions -------------------------------------------------


def test_lift_trivial():
    module = lift_restricted("trivial")
    assert isinstance(module, TrivialModule)
    for g in (L(0), H(5), I(-2), J(1), C1):
        assert not module.act(g, cw(1))
    assert module.annihilation_bound(cw(1)) == TrivialModule.SENTINEL_BOUND


def test_trivial_module_refuses_vectors_outside_cw():
    outside = ModuleVector.single(PBWMonomial(((I(0), 1),)))
    lifted = LiftedModule(TrivialModule(), _LIFT_KILLS["virasoro_style"])
    for module in (TrivialModule(), lifted):
        with pytest.raises(ValueError, match="not a multiple of w"):
            module.annihilation_bound(outside)
        with pytest.raises(ValueError, match="not a multiple of w"):
            module.act(L(1), outside)
        with pytest.raises(ValueError, match="not a multiple of w"):
            tensor_closure_probe(
                sigma_zero(), module, TensorVector.from_pairs([(X * Y, outside)]), 2
            )
        assert not module.act(L(1), cw(3))
        assert not module.act(L(1), ModuleVector.zero())


@pytest.mark.parametrize("base", ["virasoro_style", "heisenberg_virasoro_style"])
def test_lifted_module_refuses_the_same_vectors_for_every_family(base):
    # A killed family acts by zero on the inner module's vectors, but a
    # vector the inner module refuses is refused whichever family acts.
    module = LiftedModule(TrivialModule(), _LIFT_KILLS[base])
    outside = ModuleVector.single(PBWMonomial(((I(0), 1),)))
    for g in (L(1), H(1), I(-2), J(0), C1, C2, C3):
        with pytest.raises(ValueError, match="not a multiple of w"):
            module.act(g, outside)
        assert not module.act(g, cw(3))


def test_whittaker_handle_delegates():
    datum = validate_whittaker({"I[1]": "1", "J[1]": "1"}, 1, 1)
    module = WhittakerRestrictedModule(datum)
    v = ModuleVector({mono((I(0), 1)): ONE})
    assert module.act(H(1), v) == whittaker_act(datum, H(1), v)
    bound = module.annihilation_bound(v)
    for fam in "LHIJ":
        for extra in range(1, 5):
            g = Generator(fam, bound + extra)
            assert not module.act(g, v)


def test_virasoro_lift_kills_families_and_keeps_axioms():
    inner = whittaker_module()
    module = lift_restricted("virasoro_style", inner)
    v = ModuleVector.cyclic()
    for g in (H(0), I(0), J(-1), C2, Generator("c3")):
        assert not module.act(g, v)
    assert module.act(L(-1), v) == inner.act(L(-1), v)
    # Bracket relations survive because the killed span is an ideal.
    rng = random.Random(6)
    gens = [Generator(fam, idx) for fam in "LHIJ" for idx in range(-2, 3)]
    for _ in range(40):
        g1 = gens[rng.randrange(len(gens))]
        g2 = gens[rng.randrange(len(gens))]
        lhs = ModuleVector.zero()
        for g, coeff in bracket_basis(g1, g2).terms.items():
            lhs = lhs + module.act(g, v).scale(coeff)
        rhs = module.act(g1, module.act(g2, v)) - module.act(
            g2, module.act(g1, v)
        )
        assert lhs == rhs


def test_heisenberg_virasoro_lift_keeps_h():
    inner = whittaker_module()
    module = lift_restricted("heisenberg_virasoro_style", inner)
    v = ModuleVector.cyclic()
    assert not module.act(I(0), v)
    assert module.act(H(0), v) == inner.act(H(0), v)


def test_lift_rejects_unknown_base():
    with pytest.raises(ValueError):
        lift_restricted("block_style", TrivialModule())


def test_lift_of_trivial_module_is_that_module():
    trivial = TrivialModule()
    for base in ("virasoro_style", "heisenberg_virasoro_style"):
        assert lift_restricted(base, trivial) is trivial


@pytest.mark.parametrize(
    "outer, inner",
    [
        ("virasoro_style", "heisenberg_virasoro_style"),
        ("heisenberg_virasoro_style", "virasoro_style"),
        ("heisenberg_virasoro_style", "heisenberg_virasoro_style"),
    ],
)
def test_lift_of_a_lift_is_one_lift_killing_both(outer, inner):
    rich = WhittakerRestrictedModule(validate_whittaker(RICH_DATUM, 1, 1))
    lifted = lift_restricted(outer, lift_restricted(inner, rich))
    assert type(lifted) is LiftedModule and lifted.inner is rich
    # The same module as the two wrappers nested by hand.
    nested = LiftedModule(LiftedModule(rich, _LIFT_KILLS[inner]), _LIFT_KILLS[outer])
    words = [[], [I(0)], [L(-1), H(0), H(0)], [J(-1), I(0), L(0)]]
    vectors = [
        ModuleVector.single(PBWMonomial.from_word(sorted(word, key=gen_key)))
        for word in words
    ]
    for v in vectors:
        assert lifted.annihilation_bound(v) == nested.annihilation_bound(v)
        for g in AXIOM_GENERATORS:
            assert lifted.act(g, v) == nested.act(g, v)


def test_j_action_keeps_polynomial_parts_on_sigma_zero():
    # On the sigma-on-I family the J action touches only the restricted
    # side, so the polynomial parts pass through unchanged.
    datum = validate_whittaker(
        {"I[1]": "1", "J[1]": "1", "L[1]": "2"}, 1, 1
    )
    module = WhittakerRestrictedModule(datum)
    spec = sigma_zero()
    u = ModuleVector({mono((J(0), 1)): ONE})
    t = TensorVector.from_pairs([(X * Y, u), (Y + P_ONE, u)])
    for m in (-1, 0, 1):
        acted = tensor_act(spec, module, J(m), t)
        # Every polynomial part lies in the span of the input parts.
        assert set(acted.by_monomial()) <= {(1, 1), (0, 1), (0, 0)}


def test_equal_parameters_give_identical_action_tables():
    # Two independently built instances of the same module act identically
    # on a fixed probe set, literally.
    first = OmegaSpec(
        variant="sigma_zero", lam=sc(2), eta=sc(1, 3), sigma=P_ONE
    )
    second = OmegaSpec(
        variant="sigma_zero", lam=sc(2), eta=sc(1, 3), sigma=P_ONE
    )
    module_a = TrivialModule()
    module_b = TrivialModule()
    probes = [
        TensorVector.from_pairs([(P_ONE, cw(1))]),
        TensorVector.from_pairs([(X * Y, cw(1)), (Y, cw(2))]),
    ]
    gens = [L(2), L(-1), H(0), I(1), J(3), C1]
    for t in probes:
        for g in gens:
            left = tensor_act(first, module_a, g, t)
            right = tensor_act(second, module_b, g, t)
            assert left == right
