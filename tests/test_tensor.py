import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planargca.algebra import C1, C2, C3, Generator, H, I, J, L, bracket_basis, gen_key
from planargca.omega import OmegaSpec
from planargca.pbw import PBWMonomial
from planargca.poly import P_ONE, Poly, X, Y
from planargca.scalars import ONE, ZERO, sc
from planargca.tensor import (
    DegenerateSystem,
    TensorVector,
    TrivialModule,
    WhittakerRestrictedModule,
    j_nilpotency_witness,
    lift_restricted,
    tensor_act,
    tensor_add,
    tensor_canonical,
    tensor_closure_probe,
    tensor_eq,
    tensor_scale,
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


def one_tensor(module, w):
    return tensor_canonical(module, [(P_ONE, w)])


# -- canonical form -------------------------------------------------------------


def test_canonical_drops_zero_pairs():
    module = TrivialModule()
    t = tensor_canonical(module, [(X, ZERO), (Poly(), sc(1))])
    assert t.is_zero()


def test_canonical_merges_dependent_polynomials():
    module = TrivialModule()
    t = tensor_canonical(module, [(X, sc(1)), (X.scale(sc(2)), sc(3))])
    # X (x) 1 + 2X (x) 3 = X (x) 7.
    assert len(t.pairs) == 1
    poly, vector = t.pairs[0]
    assert poly == X
    assert vector == sc(7)


def test_canonical_form_is_presentation_independent():
    # The Y^2 coordinates cancel, so the true tensor is
    # X^3 (x) 1 + X^2 Y (x) 1 and the reported Y-degree must be 1.
    module = TrivialModule()
    t = tensor_canonical(
        module,
        [(X * X * X + Y * Y, sc(1)), (Y * X * X - Y * Y, sc(1))],
    )
    assert t.y_degree() == 1
    assert [str(p) for p, _ in t.pairs] == ["(1)X^2Y", "(1)X^3"]


def test_canonical_eq_independent_of_presentation():
    module = whittaker_module()
    w = ModuleVector.cyclic()
    u = ModuleVector({mono((I(0), 1)): ONE})
    t1 = tensor_canonical(module, [(X + Y, w), (X, u)])
    t2 = tensor_canonical(module, [(Y, w), (X, w), (X, u)])
    assert tensor_eq(module, t1, t2)
    assert not tensor_eq(module, t1, tensor_scale(module, sc(2), t2))


# -- actions --------------------------------------------------------------------


def test_trivial_module_reduces_to_polynomial_action():
    module = TrivialModule()
    spec = sigma_zero()
    t = one_tensor(module, sc(1))
    from planargca.omega import omega_act

    for g in (L(1), H(-2), I(0), J(3)):
        acted = tensor_act(spec, module, g, t)
        expected = tensor_canonical(module, [(omega_act(spec, g, P_ONE), sc(1))])
        assert tensor_eq(module, acted, expected)


def test_j_kills_both_sides_on_sigma_zero_whittaker():
    module = whittaker_module()
    spec = sigma_zero()
    t = one_tensor(module, ModuleVector.cyclic())
    assert tensor_act(spec, module, J(3), t).is_zero()


def test_j_action_on_zero_sigma_trivial():
    module = TrivialModule()
    spec = zero_sigma()
    t = one_tensor(module, sc(1))
    acted = tensor_act(spec, module, J(3), t)
    assert tensor_eq(module, acted, tensor_scale(module, sc(8), t))


def test_central_acts_through_restricted_side():
    datum = validate_whittaker({"I[1]": "1", "J[1]": "1", "c1": "1/2"}, 1, 1)
    module = WhittakerRestrictedModule(datum)
    spec = sigma_zero()
    t = one_tensor(module, ModuleVector.cyclic())
    acted = tensor_act(spec, module, C1, t)
    assert tensor_eq(module, acted, tensor_scale(module, sc(Fraction(1, 2)), t))


RICH_DATUM = {
    "I[1]": "1", "J[1]": "2", "L[1]": "3", "H[1]": "-1",
    "c1": "1/2", "c2": "1/5", "c3": "1/3",
}


def axiom_modules():
    rich = WhittakerRestrictedModule(validate_whittaker(RICH_DATUM, 1, 1))
    return [
        TrivialModule(),
        whittaker_module(),
        rich,
        lift_restricted("virasoro_style", rich),
        lift_restricted("heisenberg_virasoro_style", rich),
    ]


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


@st.composite
def axiom_cases(draw):
    spec = draw(st.sampled_from(
        [sigma_zero(eta=sc(1, 3)), zero_sigma(eta=sc(1, 3)), sigma_zero(sigma=X)]
    ))
    module = draw(st.sampled_from(axiom_modules()))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        poly = Poly.combine(
            (draw(_small), Poly.monomial(draw(st.integers(0, 2)), draw(st.integers(0, 2))))
            for _ in range(draw(st.integers(1, 2)))
        )
        if isinstance(module, TrivialModule):
            vector = draw(_small)
        else:
            vector = ModuleVector.combine(
                (
                    draw(_small),
                    ModuleVector.single(PBWMonomial.from_word(
                        sorted(draw(st.lists(_free, max_size=3)), key=gen_key)
                    )),
                )
                for _ in range(draw(st.integers(1, 2)))
            )
        pairs.append((poly, vector))
    t = tensor_canonical(module, pairs)
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
    # over the trivial module, two Whittaker modules and both lifts.
    spec, module, t, brackets = case
    for g1, g2 in brackets:
        lhs_pairs = []
        for g, coeff in bracket_basis(g1, g2).terms.items():
            lhs_pairs.extend(
                (p.scale(coeff), v) for p, v in tensor_act(spec, module, g, t).pairs
            )
        lhs = tensor_canonical(module, lhs_pairs)
        rhs = tensor_add(
            module,
            tensor_act(spec, module, g1, tensor_act(spec, module, g2, t)),
            tensor_scale(
                module, -ONE,
                tensor_act(spec, module, g2, tensor_act(spec, module, g1, t)),
            ),
        )
        assert tensor_eq(module, lhs, rhs), (str(g1), str(g2))


# -- Vandermonde extraction -------------------------------------------------------


def test_vandermonde_linear_example():
    module = whittaker_module()
    spec = sigma_zero()
    w = ModuleVector.cyclic()
    t = tensor_canonical(module, [(Y, w)])
    layers = vandermonde_extract(spec, module, t, 1)
    assert tensor_eq(module, layers[0], tensor_canonical(module, [(X * Y, w)]))
    assert tensor_eq(
        module, layers[1], tensor_canonical(module, [(X.scale(sc(-1)), w)])
    )


def test_vandermonde_constant_case():
    module = whittaker_module()
    spec = sigma_zero()
    t = one_tensor(module, ModuleVector.cyclic())
    layers = vandermonde_extract(spec, module, t, 0)
    assert tensor_eq(
        module, layers[0], tensor_canonical(module, [(X, ModuleVector.cyclic())])
    )


def test_vandermonde_top_layer_shape():
    # The top layer collects (-1)^q X^{i+1} (x) v_iq over the top Y-slice.
    module = whittaker_module()
    spec = sigma_zero()
    w = ModuleVector.cyclic()
    u = ModuleVector({mono((I(0), 1)): ONE})
    t = tensor_canonical(
        module, [(Y * Y, w), (X * Y * Y, u), (X * Y, w), (P_ONE, u)]
    )
    layers = vandermonde_extract(spec, module, t, 2)
    expected_top = tensor_canonical(
        module, [(X, w), (X * X, u)]
    )
    assert tensor_eq(module, layers[2], expected_top)


def test_vandermonde_reassembles_fresh_indices():
    module = whittaker_module()
    spec = sigma_zero(eta=sc(1, 3))
    w = ModuleVector.cyclic()
    t = tensor_canonical(module, [(X * Y + Y * Y, w), (X, w)])
    layers = vandermonde_extract(spec, module, t, 2)
    from planargca.scalars import scalar_pow

    base = max(module.annihilation_bound(w), 0)
    for fresh in (base + 10, base + 11, base + 13):
        expected = tensor_scale(
            module,
            scalar_pow(spec.lam, -fresh),
            tensor_act(spec, module, H(fresh), t),
        )
        pairs = []
        for j, layer in enumerate(layers):
            coeff = scalar_pow(sc(fresh), j)
            pairs.extend((p.scale(coeff), v) for p, v in layer.pairs)
        assert tensor_eq(module, tensor_canonical(module, pairs), expected)


def test_vandermonde_rejects_understated_degree():
    module = whittaker_module()
    spec = sigma_zero()
    t = tensor_canonical(module, [(Y * Y, ModuleVector.cyclic())])
    with pytest.raises(DegenerateSystem):
        vandermonde_extract(spec, module, t, 1)


# -- closure probe ----------------------------------------------------------------


def test_closure_probe_reaches_pure_tensor():
    module = whittaker_module()
    spec = sigma_zero()
    seed = tensor_canonical(
        module, [(X * X * Y, ModuleVector.cyclic())]
    )
    report = tensor_closure_probe(spec, module, seed, 3)
    assert report.reached_one_tensor
    assert report.obstruction is None
    assert report.monomials_generated == 10


def test_closure_probe_zero_sigma_variant():
    module = TrivialModule()
    spec = zero_sigma(eta=sc(1, 3))
    seed = tensor_canonical(module, [(X * Y + X, sc(1))])
    report = tensor_closure_probe(spec, module, seed, 2)
    assert report.reached_one_tensor


def test_closure_probe_immediate_for_pure_seed():
    module = whittaker_module()
    spec = sigma_zero()
    seed = one_tensor(module, ModuleVector.cyclic())
    report = tensor_closure_probe(spec, module, seed, 2)
    assert report.reached_one_tensor
    assert "seed already a pure tensor 1 (x) w" in report.steps


def test_closure_probe_reports_nonconstant_sigma_obstruction():
    module = whittaker_module()
    spec = sigma_zero(sigma=X)
    seed = tensor_canonical(
        module, [(X * X * Y, ModuleVector.cyclic())]
    )
    report = tensor_closure_probe(spec, module, seed, 3)
    assert not report.reached_one_tensor
    assert report.obstruction == "sigma is not an invertible constant"


def test_closure_probe_delta_family_obstruction():
    module = TrivialModule()
    spec = OmegaSpec(variant="delta_only", lam=sc(2), delta=X)
    seed = tensor_canonical(module, [(Y, sc(1))])
    report = tensor_closure_probe(spec, module, seed, 2)
    assert not report.reached_one_tensor
    assert report.obstruction is not None


# -- J-tail classification ----------------------------------------------------------


def test_j_witness_locally_finite():
    module = whittaker_module()
    spec = sigma_zero()
    t = one_tensor(module, ModuleVector.cyclic())
    assert j_nilpotency_witness(spec, module, t) == "locally_finite"


def test_j_witness_injective_tail():
    module = TrivialModule()
    spec = zero_sigma()
    t = one_tensor(module, sc(1))
    assert j_nilpotency_witness(spec, module, t) == "injective_tail"


def test_j_witness_zero_vector_convention():
    module = TrivialModule()
    spec = zero_sigma()
    assert j_nilpotency_witness(spec, module, TensorVector(())) == "locally_finite"


def test_j_witness_separates_variants_on_samples():
    whit = whittaker_module()
    cases = [
        (sigma_zero(), whit, ModuleVector.cyclic(), "locally_finite"),
        (sigma_zero(eta=sc(1, 3)), TrivialModule(), sc(1), "locally_finite"),
        (zero_sigma(), whit, ModuleVector.cyclic(), "injective_tail"),
        (zero_sigma(eta=sc(1, 3)), TrivialModule(), sc(1), "injective_tail"),
    ]
    for spec, module, w, expected in cases:
        t = tensor_canonical(module, [(X + P_ONE, w), (Y, w)])
        assert j_nilpotency_witness(spec, module, t) == expected


# -- restricted-module constructions -------------------------------------------------


def test_lift_trivial():
    module = lift_restricted("trivial")
    assert isinstance(module, TrivialModule)
    for g in (L(0), H(5), I(-2), J(1), C1):
        assert module.is_zero(module.act(g, sc(1)))
    assert module.annihilation_bound(sc(1)) == TrivialModule.SENTINEL_BOUND


def test_whittaker_handle_delegates():
    datum = validate_whittaker({"I[1]": "1", "J[1]": "1"}, 1, 1)
    module = WhittakerRestrictedModule(datum)
    v = ModuleVector({mono((I(0), 1)): ONE})
    assert module.act(H(1), v) == whittaker_act(datum, H(1), v)
    bound = module.annihilation_bound(v)
    for fam in "LHIJ":
        for extra in range(1, 5):
            g = Generator(fam, bound + extra)
            assert module.is_zero(module.act(g, v))


def test_virasoro_lift_kills_families_and_keeps_axioms():
    inner = whittaker_module()
    module = lift_restricted("virasoro_style", inner)
    v = ModuleVector.cyclic()
    for g in (H(0), I(0), J(-1), C2, Generator("c3")):
        assert module.is_zero(module.act(g, v))
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
    assert module.is_zero(module.act(I(0), v))
    assert module.act(H(0), v) == inner.act(H(0), v)


def test_lift_rejects_unknown_base():
    with pytest.raises(ValueError):
        lift_restricted("block_style", TrivialModule())


def test_j_action_keeps_polynomial_parts_on_sigma_zero():
    # On the sigma-on-I family the J action touches only the restricted
    # side, so the polynomial parts pass through unchanged.
    datum = validate_whittaker(
        {"I[1]": "1", "J[1]": "1", "L[1]": "2"}, 1, 1
    )
    module = WhittakerRestrictedModule(datum)
    spec = sigma_zero()
    u = ModuleVector({mono((J(0), 1)): ONE})
    t = tensor_canonical(module, [(X * Y, u), (Y + P_ONE, u)])
    for m in (-1, 0, 1):
        acted = tensor_act(spec, module, J(m), t)
        for p, _ in acted.pairs:
            # Every polynomial part lies in the span of the input parts.
            assert tensor_canonical(
                module, [(p, ModuleVector.cyclic())]
            ).pairs[0][0] in {
                q for q, _ in tensor_canonical(
                    module,
                    [(X * Y, ModuleVector.cyclic()),
                     (Y + P_ONE, ModuleVector.cyclic())],
                ).pairs
            }


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
        tensor_canonical(module_a, [(P_ONE, sc(1))]),
        tensor_canonical(module_a, [(X * Y, sc(1)), (Y, sc(2))]),
    ]
    gens = [L(2), L(-1), H(0), I(1), J(3), C1]
    for t in probes:
        for g in gens:
            left = tensor_act(first, module_a, g, t)
            right = tensor_act(second, module_b, g, t)
            assert tensor_eq(module_a, left, right)
