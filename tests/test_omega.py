import dataclasses
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from heapq import heappush
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planargca import ideal, omega
from planargca.algebra import (
    C1,
    CENTRALS,
    Generator,
    H,
    I,
    J,
    L,
    bracket_basis,
    generators_up_to,
)
from planargca.linalg import SparseEchelon
from planargca.omega import (
    CachedAction,
    InvalidSpec,
    OmegaSpec,
    check_proper_ideal,
    omega_act,
    submodule_closure_probe,
    verify_omega_axioms,
)
from planargca.poly import P_ONE, P_ZERO, Poly, X, Y
from planargca.sampling import random_poly
from planargca.scalars import ONE, sc


def sigma_zero(lam=sc(2), eta=sc(0), sigma=P_ONE):
    return OmegaSpec(variant="sigma_zero", lam=lam, eta=eta, sigma=sigma)


def zero_sigma(lam=sc(2), eta=sc(0), sigma=P_ONE):
    return OmegaSpec(variant="zero_sigma", lam=lam, eta=eta, sigma=sigma)


def delta_only(lam=sc(2), delta=X):
    return OmegaSpec(variant="delta_only", lam=lam, delta=delta)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        OmegaSpec(variant="sigma_zero", lam=sc(0), eta=sc(0), sigma=P_ONE)
    with pytest.raises(InvalidSpec):
        OmegaSpec(variant="sigma_zero", lam=sc(2), eta=sc(0), sigma=P_ZERO)
    with pytest.raises(InvalidSpec):
        OmegaSpec(variant="sigma_zero", lam=sc(2), eta=sc(0), sigma=X * Y)
    with pytest.raises(InvalidSpec):
        OmegaSpec(variant="delta_only", lam=sc(2), delta=X, sigma=P_ONE)
    with pytest.raises(InvalidSpec):
        OmegaSpec(variant="nope", lam=sc(2), eta=sc(0), sigma=P_ONE)


def test_l_action():
    # L_1 on Y with lam=2, eta=0: 2*(Y-1)*(Y-X).
    expected = (Y - P_ONE) * (Y - X)
    assert omega_act(sigma_zero(), L(1), Y) == expected.scale(sc(2))


def test_i_action_shifts_and_scales():
    # I_{-1} on X^2: (1/2)*(X-1)^2.
    expected = ((X - P_ONE) * (X - P_ONE)).scale(sc(1, 0) * sc(2).inverse())
    assert omega_act(sigma_zero(), I(-1), X * X) == expected


def test_j_kills_sigma_zero():
    assert omega_act(sigma_zero(), J(5), X * Y + P_ONE) == P_ZERO


def test_centrals_annihilate():
    for spec in (sigma_zero(), zero_sigma(), delta_only()):
        assert omega_act(spec, C1, X) == P_ZERO


def test_zero_sigma_actions():
    spec = zero_sigma()
    # L_m uses Y + mX + m*eta; J_m shifts X by +1.
    assert omega_act(spec, L(1), P_ONE) == (Y + X).scale(sc(2))
    assert omega_act(spec, J(1), X) == (X + P_ONE).scale(sc(2))
    assert omega_act(spec, I(3), X * Y) == P_ZERO


def test_delta_only_actions():
    spec = delta_only()
    assert omega_act(spec, L(1), P_ONE) == (Y + X).scale(sc(2))
    assert omega_act(spec, I(2), Y) == P_ZERO
    assert omega_act(spec, J(-1), Y) == P_ZERO


def test_commutator_example_ll():
    # [L1, L-1] = -2 L0; on f = X both sides give -2XY.
    spec = sigma_zero()
    lhs = omega_act(spec, L(0), X).scale(sc(-2))
    rhs = omega_act(spec, L(1), omega_act(spec, L(-1), X)) - omega_act(
        spec, L(-1), omega_act(spec, L(1), X)
    )
    assert lhs == rhs == (X * Y).scale(sc(-2))


def test_commutator_example_hh_central():
    spec = sigma_zero()
    for f in (P_ONE, X, Y, X * Y):
        assert omega_act(spec, H(1), omega_act(spec, H(-1), f)) == omega_act(
            spec, H(-1), omega_act(spec, H(1), f)
        )


def test_axioms_hold_for_all_variants_small():
    for spec in (
        sigma_zero(eta=sc(1, 3)),
        sigma_zero(sigma=X),
        zero_sigma(eta=sc(1, 3)),
        zero_sigma(sigma=X),
        delta_only(),
    ):
        report = verify_omega_axioms(spec, 2, 2)
        assert report.ok, report.violations


def test_h_action_shape():
    # H always multiplies by X after a Y-shift: X-degree rises by one.
    rng = random.Random(3)
    for spec in (sigma_zero(), zero_sigma(), delta_only()):
        for _ in range(10):
            f = random_poly(rng, 3)
            for m in (-2, 0, 3):
                image = omega_act(spec, H(m), f)
                assert image.x_degree() == f.x_degree() + 1
                assert image == (
                    X * f.shift(sc(0), sc(-m))
                ).scale(sc(2) ** m)


def test_ij_compose_to_zero():
    spec_i = sigma_zero()
    spec_j = zero_sigma()
    rng = random.Random(9)
    for _ in range(5):
        f = random_poly(rng, 3)
        for m in (-2, 1):
            for n in (0, 3):
                assert omega_act(
                    spec_i, I(m), omega_act(spec_i, J(n), f)
                ) == P_ZERO
                assert omega_act(
                    spec_j, J(m), omega_act(spec_j, I(n), f)
                ) == P_ZERO


def test_cached_action_matches_direct():
    spec = sigma_zero(eta=sc(1, 3), sigma=X)
    action = CachedAction(spec)
    rng = random.Random(21)
    for _ in range(10):
        f = random_poly(rng, 3)
        g = Generator("LHIJ"[rng.randrange(4)], rng.randint(-3, 3))
        assert action.act(g, f) == omega_act(spec, g, f)


SIGMA_X2 = X * X + P_ONE

def original_table(spec, g, f):
    """The three action tables as first written, one per variant."""
    if g.is_central:
        return P_ZERO
    m = g.index
    lam_m = spec.lam ** m
    shifted = f.shift(sc(0), sc(-m))
    if g.family == "H":
        return (X * shifted).scale(lam_m)
    if g.family == "L":
        if spec.variant == "sigma_zero":
            linear = Y - X.scale(sc(m)) + Poly.constant(sc(m) * spec.eta)
        elif spec.variant == "zero_sigma":
            linear = Y + X.scale(sc(m)) + Poly.constant(sc(m) * spec.eta)
        else:
            linear = Y + spec.delta.scale(sc(m))
        return (shifted * linear).scale(lam_m)
    if g.family == "I":
        if spec.variant != "sigma_zero":
            return P_ZERO
        return (spec.sigma * f.shift(sc(-1), sc(-m))).scale(lam_m)
    if spec.variant != "zero_sigma":
        return P_ZERO
    return (spec.sigma * f.shift(sc(1), sc(-m))).scale(lam_m)


def draw_scalar(data, nonzero=False):
    re = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
    im = Fraction(data.draw(st.integers(-2, 2)), data.draw(st.integers(1, 2)))
    value = sc(re, im)
    return value if value or not nonzero else sc(1)


def draw_poly(data, max_degree, univariate):
    terms = {}
    for _ in range(data.draw(st.integers(0, 4))):
        a = data.draw(st.integers(0, max_degree))
        b = 0 if univariate else data.draw(st.integers(0, max_degree - a))
        terms[(a, b)] = draw_scalar(data)
    return Poly(terms)


def draw_spec(data, variant=None):
    """Any of the three families, or the one named; rational or complex
    parameters, delta = 0 and sigma or delta of degree up to 2 included."""
    if variant is None:
        variant = data.draw(st.sampled_from(["sigma_zero", "zero_sigma", "delta_only"]))
    lam = draw_scalar(data, nonzero=True)
    if variant == "delta_only":
        return delta_only(lam=lam, delta=draw_poly(data, 2, univariate=True))
    sigma = draw_poly(data, 2, univariate=True) or P_ONE
    return OmegaSpec(variant=variant, lam=lam, eta=draw_scalar(data), sigma=sigma)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_omega_act_matches_original_tables(data):
    spec = draw_spec(data)
    family = data.draw(st.sampled_from(["L", "H", "I", "J", "c1", "c2", "c3"]))
    g = Generator(family) if family.startswith("c") else Generator(
        family, data.draw(st.integers(-4, 4))
    )
    f = draw_poly(data, 3, univariate=False)
    assert omega_act(spec, g, f) == original_table(spec, g, f)


ACTION_GENERATORS = [
    Generator(family, idx) for family in "LHIJ" for idx in range(-6, 7)
] + list(CENTRALS)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_cached_action_matches_omega_act(data):
    # One shared CachedAction per spec: later calls reuse the images (and
    # the images built by recurrence on the way) that earlier calls cached.
    spec = draw_spec(data)
    action = CachedAction(spec)
    for _ in range(data.draw(st.integers(1, 6))):
        g = data.draw(st.sampled_from(ACTION_GENERATORS))
        f = draw_poly(data, 10, univariate=False)
        image = action.act(g, f)
        assert image == omega_act(spec, g, f), (spec, g, f)
        assert action.act(g, image) == omega_act(spec, g, image)


def reference_axioms(spec, index_bound, basis_cap):
    """The axiom sweep on polynomials: every action through ``omega_act``."""
    gens = generators_up_to(index_bound)
    pairs, violations = 0, []
    for i, g1 in enumerate(gens):
        for g2 in gens[i:]:
            pairs += 1
            bracket = bracket_basis(g1, g2)
            for a in range(basis_cap + 1):
                for b in range(basis_cap + 1):
                    f = Poly.monomial(a, b)
                    lhs = Poly.combine(
                        (coeff, omega_act(spec, g, f)) for g, coeff in bracket.terms.items()
                    )
                    rhs = omega_act(spec, g1, omega_act(spec, g2, f)) - omega_act(
                        spec, g2, omega_act(spec, g1, f)
                    )
                    if lhs != rhs:
                        violations.append(f"[{g1},{g2}] on X^{a}Y^{b}")
    return pairs, violations


TRUE_FACTORS = omega.action_factors


def broken_factors(kind, family, index):
    """``action_factors`` with one generator's entry altered (a flipped
    shift of 0 becomes 1); the result is in general no longer a module."""

    def factors(spec, g):
        table = TRUE_FACTORS(spec, g)
        if table is None or g.family != family or g.index != index:
            return table
        multiplier, dx, dy = table
        if kind == "scaled multiplier":
            return multiplier.scale(sc(1, 1)), dx, dy
        if kind == "flipped dx":
            return multiplier, -dx or 1, dy
        return multiplier, dx, -dy or 1

    return factors


@pytest.mark.parametrize("variant", ["sigma_zero", "zero_sigma", "delta_only"])
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_axiom_sweep_matches_the_polynomial_sweep(variant, data):
    # Index bound 2 includes [L_2, L_-2], whose central coefficient is 1/2.
    spec = draw_spec(data, variant)
    basis_cap = data.draw(st.integers(0, 2))
    kind = data.draw(
        st.sampled_from(["scaled multiplier", "flipped dx", "flipped dy", None])
    )
    table = TRUE_FACTORS
    if kind is not None:
        acting = "LH" + (spec.sigma_slot[0] if spec.sigma_slot else "")
        table = broken_factors(
            kind, data.draw(st.sampled_from(acting)), data.draw(st.integers(-2, 2))
        )
    with mock.patch.object(omega, "action_factors", table):
        report = verify_omega_axioms(spec, 2, basis_cap)
        assert (report.pairs_checked, report.violations) == reference_axioms(
            spec, 2, basis_cap
        )
    if kind is None:
        assert report.ok


def test_axiom_sweep_reports_a_broken_table():
    # A non-real multiplier on H_1 breaks [H_1, g] for many g; the sweep
    # names the same pairs and monomials, in the same order, as the
    # polynomial sweep.
    spec = sigma_zero(eta=sc(1, 3), sigma=X)
    with mock.patch.object(
        omega, "action_factors", broken_factors("scaled multiplier", "H", 1)
    ):
        report = verify_omega_axioms(spec, 2, 1)
        assert report.violations
        assert (report.pairs_checked, report.violations) == reference_axioms(spec, 2, 1)


def test_axiom_sweep_reports_the_monomials_where_mixed_shifts_differ():
    # With L_-2's X-shift flipped from 0 to 1, the commutator of
    # [L_-2, I_-1] shifts X by 0 and its bracket side, a multiple of I_-3,
    # by -1.  The two shifts agree on polynomials in Y alone, so the
    # residual vanishes at f = 1 and yet the pair fails on exactly the
    # monomials of X-degree at least 1.
    spec = sigma_zero(eta=sc(1, 3))
    with mock.patch.object(omega, "action_factors", broken_factors("flipped dx", "L", -2)):
        report = verify_omega_axioms(spec, 2, 2)
        assert (report.pairs_checked, report.violations) == reference_axioms(spec, 2, 2)
    assert [v for v in report.violations if v.startswith("[L[-2],I[-1]]")] == [
        f"[L[-2],I[-1]] on X^{a}Y^{b}" for a in (1, 2) for b in range(3)
    ]


@pytest.mark.parametrize(
    "spec",
    [sigma_zero(sigma=X), zero_sigma(eta=sc(1, 3)), delta_only()],
    ids=["sigma_zero", "zero_sigma", "delta_only"],
)
def test_axiom_sweep_work_does_not_grow_with_the_cap(spec):
    # On a true table every pair's residual vanishes, so no monomial of the
    # grid reaches the kernel.
    kernel = omega._GeneratorImages.apply

    def kernel_calls(basis_cap):
        with mock.patch.object(
            omega._GeneratorImages, "apply", autospec=True, side_effect=kernel
        ) as apply:
            assert verify_omega_axioms(spec, 2, basis_cap).ok
        return apply.call_count

    calls = kernel_calls(0)
    assert calls > 0
    assert kernel_calls(6) == calls


def test_axioms_hold_at_index_four_and_cap_eight():
    # The five acceptance specs.  Checking each pair once makes the cap
    # free: checking every pair on every monomial took 9-12 s of CPU on a
    # 2-vCPU Xeon under Python 3.11.
    started = time.process_time()
    for spec in (
        sigma_zero(eta=sc(1, 3)),
        sigma_zero(eta=sc(1, 3), sigma=X),
        zero_sigma(eta=sc(1, 3)),
        zero_sigma(eta=sc(1, 3), sigma=X),
        delta_only(),
    ):
        report = verify_omega_axioms(spec, 4, 8)
        assert report.ok, report.violations
        assert report.pairs_checked == 780
    assert time.process_time() - started < 2.0


class Reference(NamedTuple):
    rows: list
    dimension_by_degree: list
    contains_one: bool


def reference_closure(spec, seed, index_bound, degree_cap, families="JIHL", descending=False):
    """The capped closure W by its definition, with no index-free operator,
    no ideal and no Gröbner basis.

    W is the least subspace that contains the seed and every g_m w, for
    |m| <= ``index_bound``, of w in W whose degree is within the cap.  Each
    pass acts with every generator on every row of the current reduced
    echelon basis, keeps the images whose degree, tested after acting, is
    within the cap, and inserts them; passes repeat until one inserts
    nothing.  ``families`` and ``descending`` set the visiting order.  W
    lies in U(g) seed at every bound and cap, and grows with the cap.
    The columns run by descending total degree, so each row's pivot is a
    top-degree monomial; dim(W ∩ P≤k) is read off independently of the
    column order, as dim W minus the rank of W's components of degree
    above k.
    """
    indices = range(-index_bound, index_bound + 1)
    generators = [
        Generator(family, idx)
        for family in families
        for idx in (reversed(indices) if descending else indices)
    ]
    top = max(degree_cap, seed.total_degree())
    monomials = [
        (a, total - a) for total in range(top, -1, -1) for a in range(total + 1)
    ]
    column_of = {mono: col for col, mono in enumerate(monomials)}

    def to_row(p):
        return {column_of[mono]: coeff for mono, coeff in p.terms.items()}

    def to_poly(row):
        return Poly({monomials[col]: coeff for col, coeff in row.items()})

    action = CachedAction(spec)
    basis = SparseEchelon()
    basis.insert(to_row(seed))
    inserted = True
    while inserted:
        inserted = False
        for poly in [to_poly(row) for row in basis.rows_sorted()]:
            for g in generators:
                image = action.act(g, poly)
                if image and image.total_degree() <= degree_cap:
                    inserted = basis.insert(to_row(image)) or inserted
    rows = [to_poly(row) for row in basis.rows_sorted()]
    by_degree = []
    for k in range(degree_cap + 1):
        above = SparseEchelon()
        for poly in rows:
            above.insert({
                column_of[mono]: coeff
                for mono, coeff in poly.terms.items()
                if sum(mono) > k
            })
        by_degree.append(len(rows) - above.dimension)
    return Reference(rows, by_degree, basis.contains(to_row(P_ONE)))


def reference_index(degree_cap):
    """An index bound at which ``reference_closure`` sees every index.

    With B = ceil(cap / 2) there are 2B + 1 >= cap + 1 indices.  Every
    vector that a generator may act on has deg_Y at most cap (at most
    cap - 1 for L), and lam^(-m) g_m v is a polynomial in m of degree at
    most deg_Y v (deg_Y v + 1 for L), so its images at |m| <= B span its
    images at every m.
    """
    return -(-degree_cap // 2)


def to_row(p):
    return {(-a - b, a): coeff for (a, b), coeff in p.terms.items()}


def generators_of(probe):
    return [Poly.from_json(g) for g in probe.ideal]


def multiples(generators, degree):
    """An echelon of the span of every X^a Y^b G_i of degree at most
    ``degree``: linear algebra only, no normal form.

    The span lies in (G).  For a Gröbner basis G in a degree-compatible
    order it is all of (G) ∩ P≤degree, since every element of (G) has a
    standard representation sum q_i G_i with deg q_i G_i <= deg f.  So a
    polynomial of degree at most ``degree`` lies in it exactly when it lies
    in (G), and a G that is not a Gröbner basis shows up as a miss.
    """
    span = SparseEchelon()
    for g in generators:
        for d in range(degree - g.total_degree() + 1):
            for a in range(d + 1):
                span.insert(to_row(Poly.monomial(a, d - a) * g))
    return span


def draw_seed(data, spec, max_degree):
    """A nonzero seed of degree up to ``max_degree``, in half the draws
    times sigma (or X for ``delta_only``), so that proper ideals come up."""
    seed = draw_poly(data, data.draw(st.integers(0, max_degree)), univariate=False) or Y
    if data.draw(st.booleans()):
        seed = (spec.sigma or X) * seed
    return seed


@pytest.mark.parametrize(
    "spec, seed, dimension, dimension_by_degree, contains_one",
    [
        pytest.param(
            sigma_zero(), X * Y + P_ONE, 21, [1, 3, 6, 10, 15, 21], True, id="sigma1"
        ),
        pytest.param(
            zero_sigma(lam=sc(3), eta=sc(1, 2), sigma=SIGMA_X2), SIGMA_X2 * Y,
            10, [0, 0, 1, 3, 6, 10], False, id="sigmaX2",
        ),
        pytest.param(
            delta_only(delta=X * X), Y * Y + X, 20, [0, 2, 5, 9, 14, 20], False,
            id="deltaX2",
        ),
    ],
)
def test_closure_dimension_by_degree(spec, seed, dimension, dimension_by_degree, contains_one):
    # The ideals are (1), (X^2 + 1) and (X, Y): their parts of degree at
    # most 5 are P≤5, (X^2 + 1) * P≤3 and the polynomials of P≤5 without
    # constant term.
    probe = submodule_closure_probe(spec, seed, 5)
    assert (probe.dimension, probe.dimension_by_degree, probe.contains_one) == (
        dimension, dimension_by_degree, contains_one
    )


def test_closure_reaches_one_for_constant_sigma():
    probe = submodule_closure_probe(sigma_zero(), X * X * X * Y * Y, 8)
    assert probe.contains_one


def test_closure_blocked_inside_sigma_multiples():
    spec = sigma_zero(sigma=X)
    seed = X * (Y * Y + X)
    probe = submodule_closure_probe(spec, seed, 8)
    assert not probe.contains_one
    assert probe.dimension > 0


def test_closure_blocked_for_delta_family():
    probe = submodule_closure_probe(delta_only(), Y, 8)
    assert not probe.contains_one


def test_closure_from_ten_random_seeds_constant_sigma():
    rng = random.Random(77)
    for _ in range(10):
        seed = random_poly(rng, 3)
        probe = submodule_closure_probe(sigma_zero(), seed, 10)
        assert probe.contains_one


@pytest.mark.parametrize(
    "degree_cap, dimension", [(10, 66), (24, 325)], ids=["10", "24"]
)
def test_closure_spans_all_of_p_cap_for_constant_sigma(degree_cap, dimension):
    probe = submodule_closure_probe(sigma_zero(eta=sc(1, 3)), X * Y + P_ONE, degree_cap)
    assert probe.dimension == dimension
    assert probe.dimension_by_degree == [
        (k + 1) * (k + 2) // 2 for k in range(degree_cap + 1)
    ]


@pytest.mark.parametrize(
    "degree_cap, dimension", [(10, 55), (24, 300)], ids=["10", "24"]
)
def test_closure_spans_x_times_p_cap_minus_one_for_sigma_x(degree_cap, dimension):
    # The ideal is (X), and X * P≤(k-1) has dimension k (k + 1) / 2.
    spec = sigma_zero(eta=sc(1, 3), sigma=X)
    probe = submodule_closure_probe(spec, X * (Y * Y + X), degree_cap)
    assert probe.dimension == dimension
    assert probe.dimension_by_degree == [k * (k + 1) // 2 for k in range(degree_cap + 1)]
    assert probe.ideal == [X.to_json()]


def test_closure_of_a_seed_above_the_cap_is_its_span():
    # The cap bounds only the report, not the work: the seed X^3 Y + Y
    # generates (1), so every P≤k is in.  The capped probe this replaced
    # could not act on a seed above its cap and reported [0, 0, 0, 0].
    probe = submodule_closure_probe(sigma_zero(), X * X * X * Y + Y, 3)
    assert (probe.dimension, probe.dimension_by_degree, probe.contains_one) == (
        10, [1, 3, 6, 10], True
    )


def test_closure_rejects_zero_seed():
    with pytest.raises(ValueError):
        submodule_closure_probe(sigma_zero(), P_ZERO, 4)


def test_closure_report_shape():
    probe = submodule_closure_probe(sigma_zero(), X, 4)
    assert {f.name for f in dataclasses.fields(probe)} == {
        "dimension",
        "contains_one",
        "dimension_by_degree",
        "degree_cap",
        "ideal",
    }
    assert probe.dimension == probe.dimension_by_degree[-1]
    assert probe.dimension_by_degree == [1, 3, 6, 10, 15]
    assert probe.ideal == [P_ONE.to_json()]


def grevlex_lead(p):
    return max(p.terms, key=lambda mono: (sum(mono), mono[0]))


def test_closure_ideal_is_the_reduced_groebner_basis():
    # Monic, leading monomials ascending in grevlex, no term of an element
    # divisible by another element's leading monomial, and a Gröbner
    # basis: its multiples of degree at most k span a space whose dimension
    # is the reported dim(I ∩ P≤k), which counts the monomials that some
    # leading monomial divides.  Rescaling the seed changes nothing.
    cases = [
        (delta_only(delta=X), X * Y * Y + X * X),
        (delta_only(lam=sc(1), delta=P_ONE + X), X * Y),
        (sigma_zero(sigma=X - P_ONE), (X - P_ONE) * Y),
        (zero_sigma(lam=sc(1, 1), sigma=X * X + X), (X * X + X) * (X + Y)),
        (delta_only(delta=X * X), Y * Y + X),
    ]
    for spec, seed in cases:
        probe = submodule_closure_probe(spec, seed, 6)
        generators = generators_of(probe)
        leads = [grevlex_lead(g) for g in generators]
        assert leads == sorted(leads, key=lambda mono: (sum(mono), mono[0]))
        for g, lead in zip(generators, leads):
            assert g.terms[lead] == ONE
            for mono in g.terms:
                assert not any(
                    other != lead and other[0] <= mono[0] and other[1] <= mono[1]
                    for other in leads
                ), (g, mono)
        for k in range(7):
            assert multiples(generators, k).dimension == probe.dimension_by_degree[k]
            assert probe.dimension_by_degree[k] == sum(
                any(lead[0] <= a and lead[1] <= d - a for lead in leads)
                for d in range(k + 1) for a in range(d + 1)
            )
        assert submodule_closure_probe(spec, seed.scale(sc(-2, 3)), 6) == probe


def test_closure_completes_the_basis_by_s_polynomials():
    # With delta = 0 every L image is Y D_j v.  From the seed
    # v = i X Y^2 + (3 - i) X, X Y enters the basis below v's leading
    # monomial X Y^2, and their S-polynomial, v - i Y (X Y) = (3 - i) X,
    # puts X in.  Dropping v for its leading monomial instead, with no
    # S-polynomials, the probe stops at (X Y, X^2).
    spec = delta_only(lam=sc(0, 1), delta=P_ZERO)
    seed = (X * Y * Y).scale(sc(0, 1)) + X.scale(sc(3, -1))
    assert submodule_closure_probe(spec, seed, 4).ideal == [X.to_json()]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_closure_is_closed_at_indices_beyond_every_bound(data):
    # The definition of U(g) seed, at every degree and with no index
    # bound: the seed lies in (G), and so does g_m G_i at random indices m
    # in [-10, 10], with images
    # from omega_act, not the probe's CachedAction, and membership by
    # linear algebra over the multiples of G, not the engine's normal form.
    spec = draw_spec(data)
    seed = draw_seed(data, spec, 4)
    probe = submodule_closure_probe(spec, seed, 4)
    generators = generators_of(probe)
    assert probe.contains_one == (generators == [P_ONE])
    images = [seed] + [
        omega_act(spec, Generator(family, m), g)
        for g in generators
        for family in "LHIJ"
        for m in data.draw(st.lists(st.integers(-10, 10), min_size=1, max_size=3))
    ]
    span = multiples(generators, max(f.total_degree() for f in images))
    for f in images:
        assert span.contains(to_row(f)), (spec, seed, generators, f)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_closure_ideal_lies_in_the_reference_closure(data):
    # Minimality, by independent code: every G_i lies in the capped
    # closure W of ``reference_closure`` at some cap up to 14, and W lies
    # in U(g) seed.  So (G) ⊆ U(g) seed, and with the test above,
    # (G) = U(g) seed.
    spec = draw_spec(data)
    seed = draw_seed(data, spec, 3)
    generators = generators_of(submodule_closure_probe(spec, seed, 4))
    lowest = max(2, seed.total_degree(), *(g.total_degree() for g in generators))
    for cap in range(lowest, 15):
        span = SparseEchelon()
        for w in reference_closure(spec, seed, reference_index(cap), cap).rows:
            span.insert(to_row(w))
        if all(span.contains(to_row(g)) for g in generators):
            return
    pytest.fail(f"{generators} not in the capped closure of {seed} up to cap 14")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_closure_contains_the_reference_that_acts_everywhere(data):
    # All three families, real and complex lambda, sigma or delta of
    # degree 0-2, and seeds up to two degrees over the cap: the capped
    # closure W lies in the ideal, so the ideal's dim(I ∩ P≤k) is at least
    # W's at every k, and 1 in W puts 1 in the ideal.
    spec = draw_spec(data)
    degree_cap = data.draw(st.integers(2, 8))
    seed_degree = data.draw(st.integers(0, degree_cap + 2))
    seed = draw_poly(data, seed_degree, univariate=False) or Y
    probe = submodule_closure_probe(spec, seed, degree_cap)
    reference = reference_closure(spec, seed, reference_index(degree_cap), degree_cap)
    span = multiples(generators_of(probe), max(degree_cap, seed.total_degree()))
    assert all(span.contains(to_row(w)) for w in reference.rows)
    assert all(
        w <= i for w, i in zip(reference.dimension_by_degree, probe.dimension_by_degree)
    )
    assert probe.contains_one or not reference.contains_one


@contextmanager
def recording_entries(seed, events):
    """Append to ``events`` each element that enters the probe's basis, in
    order: the monic seed now, then each remainder as ``ideal.extend`` takes
    it in."""
    events.append(Poly(ideal.normal_form(seed.terms, [])))
    extend = ideal.extend

    def recording(basis, r):
        events.append(Poly(r))
        return extend(basis, r)

    with mock.patch.object(ideal, "extend", recording):
        yield


TRUE_L_DELTA = OmegaSpec.l_delta.func


def scaled_l_delta(scale):
    return property(lambda spec: TRUE_L_DELTA(spec).scale(scale))


def test_closure_needs_the_top_l_coefficient():
    # L's multiplier Y + m delta makes lam^(-m) L_m v one degree higher in
    # m than deg_Y v; its top coefficient is -delta D_(deg_Y v) v.  Here
    # U(g) seed = (X), which the capped reference reaches too; without the
    # top coefficient, or without the delta side at all, the probe stops
    # at (XY, X^2).
    spec = delta_only(lam=sc(1), delta=P_ONE + X)
    seed = (X * Y).scale(sc(-2)) + (X * X).scale(sc(1, 3))
    probe = submodule_closure_probe(spec, seed, 3)
    assert (probe.dimension, probe.dimension_by_degree, probe.contains_one) == (
        6, [0, 1, 3, 6], False
    )
    assert probe.ideal == [X.to_json()]
    reference = reference_closure(spec, seed, reference_index(3), 3)
    assert reference.dimension_by_degree == probe.dimension_by_degree
    entered = []

    def push_all_but_the_top_l_coefficient(queue, item):
        v = entered[-1]
        if Poly(item[-1]) != -(spec.l_delta * omega._taylor(v, v.y_degree())):
            heappush(queue, item)

    with recording_entries(seed, entered), mock.patch.object(
        omega, "heappush", push_all_but_the_top_l_coefficient
    ):
        mutant = submodule_closure_probe(spec, seed, 3)
    assert mutant.ideal == [(X * Y).to_json(), (X * X).to_json()]
    with mock.patch.object(OmegaSpec, "l_delta", scaled_l_delta(sc(0))):
        assert submodule_closure_probe(spec, seed, 3).ideal == mutant.ideal


def test_closure_needs_the_sign_of_the_sigma_shift():
    # I acts by sigma(X) f(X - 1, Y - m); with sigma = X - 1 the seed
    # (X - 1) Y generates (X - 1).  With the shift flipped to X + 1 the
    # probe stops at (X - 1)(X, Y).
    spec = sigma_zero(sigma=X - P_ONE)
    seed = (X - P_ONE) * Y
    assert submodule_closure_probe(spec, seed, 4).ideal == [(X - P_ONE).to_json()]
    with mock.patch.object(omega, "action_factors", broken_factors("flipped dx", "I", 0)):
        mutant = submodule_closure_probe(spec, seed, 4)
    assert mutant.ideal == [((X - P_ONE) * Y).to_json(), ((X - P_ONE) * X).to_json()]


@pytest.mark.parametrize("scale", [sc(2), sc(-3), sc(0, 1), sc(1, 5)])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_closure_ideal_does_not_depend_on_the_scale_of_the_delta_side(scale, data):
    # An ideal I that holds v and every X D_j v holds every
    # Y D_j v - c delta D_(j-1) v for one nonzero c exactly when it does for
    # all of them: with delta = delta(0) + X delta_1, the condition is
    # Y D_j v in I for every j if delta(0) = 0, and D_j v in I for every j
    # otherwise (from the top j down).  So any nonzero scale of the -delta
    # side of L's coefficients gives the same ideal.  At index 0, L acts by
    # Y alone, so scaling delta inside the probe scales that side and
    # nothing else.
    spec = draw_spec(data)
    seed = draw_seed(data, spec, 4)
    probe = submodule_closure_probe(spec, seed, 6)
    with mock.patch.object(OmegaSpec, "l_delta", scaled_l_delta(scale)):
        assert submodule_closure_probe(spec, seed, 6) == probe


@pytest.mark.parametrize("s", [0, 4])
@pytest.mark.parametrize("degree_cap", [5, 10])
def test_closure_report_does_not_depend_on_visiting_order(s, degree_cap):
    # The reduced basis depends only on the ideal: taking the queued images
    # last in first out, or in the heap's array order, instead of lowest
    # degree first changes no report, nor does rescaling the seed.  The
    # capped reference gives the same rows in either visiting order, and
    # they lie in the ideal.
    seed = random_poly(random.Random(s), 3)
    for spec, seed in [
        (sigma_zero(eta=sc(3)), seed),
        (sigma_zero(eta=sc(3), sigma=X), X * seed),
        (delta_only(delta=X * X + X.scale(sc(1, 9)) - P_ONE.scale(sc(1, 3))), X * seed),
    ]:
        probe = submodule_closure_probe(spec, seed, degree_cap)
        for pop in (lambda queue: queue.pop(), lambda queue: queue.pop(0)):
            with mock.patch.object(omega, "heappop", pop):
                assert submodule_closure_probe(spec, seed, degree_cap) == probe
        assert submodule_closure_probe(spec, seed.scale(sc(5, 7)), degree_cap) == probe
        index_bound = reference_index(degree_cap)
        reference = reference_closure(spec, seed, index_bound, degree_cap)
        assert reference == reference_closure(
            spec, seed, index_bound, degree_cap, families="LHIJ", descending=True
        )
        span = multiples(generators_of(probe), degree_cap)
        assert all(span.contains(to_row(w)) for w in reference.rows)


def test_closure_acts_only_where_the_index_polynomial_needs_it():
    # lam^-m g_m v is a polynomial in m with deg_Y v + 1 coefficients
    # (deg_Y v + 2 for L, whose top one, -delta D_(deg_Y v) v, needs no
    # action), and the probe computes only those: for each element v that
    # enters the basis (the seed, then each nonzero remainder), at most
    # deg_Y v + 1 ``act`` calls per family, each with an index-0 generator
    # on D_j v for some j.  The reference acts at every index up to its
    # bound, pass after pass.
    events = []
    act = CachedAction.act

    def counted(self, g, f):
        events.append((g, f))
        return act(self, g, f)

    cases = [
        (sigma_zero(eta=sc(1, 3)), X * Y + P_ONE),
        (zero_sigma(lam=sc(3), eta=sc(1, 2), sigma=SIGMA_X2), SIGMA_X2 * Y),
        (delta_only(delta=X * X), Y * Y + X),
    ]
    for spec, seed in cases:
        with mock.patch.object(CachedAction, "act", counted):
            with recording_entries(seed, events):
                submodule_closure_probe(spec, seed, 10)
            acted, events[:] = list(events), []
            reference_closure(spec, seed, reference_index(10), 10)
            reference_calls, events[:] = len(events), []
        entered = [event for event in acted if isinstance(event, Poly)]
        probe_calls = len(acted) - len(entered)
        assert 0 < probe_calls <= 0.1 * reference_calls, (spec, probe_calls, reference_calls)
        for event in acted:
            if isinstance(event, Poly):
                v, counts = event, {}
                allowed = [omega._taylor(v, j) for j in range(v.y_degree() + 1)]
                continue
            g, f = event
            counts[g.family] = counts.get(g.family, 0) + 1
            assert g.index == 0 and f in allowed, (v, g, f)
            assert counts[g.family] <= v.y_degree() + 1, (v, g)


def test_check_proper_ideal_accepts_the_certificate_and_refuses_others():
    spec = sigma_zero(sigma=X)
    seed = X * (Y * Y + X)
    generators = generators_of(submodule_closure_probe(spec, seed, 4))
    assert generators == [X]
    assert check_proper_ideal(spec, seed, generators)
    # (X, Y) is invariant for eta = 0 and holds the seed, but [X, X + Y]
    # is not a Gröbner basis of it: the check needs one.
    assert check_proper_ideal(spec, seed, [Y, X])
    assert not check_proper_ideal(spec, seed, [X, X + Y])
    # The seed must lie in the ideal, which must be proper and invariant:
    # I_1 (X - 1) = 2 X (X - 2) is not in (X - 1).
    assert not check_proper_ideal(spec, Y, [X])
    assert not check_proper_ideal(spec, seed, [P_ONE])
    assert not check_proper_ideal(spec, (X - P_ONE) * Y, [X - P_ONE])
    assert not check_proper_ideal(spec, seed, [])
    # Every index-0 generator of the delta family multiplies, so (Y) passes
    # at m = 0; L_1 Y = 2 (Y - 1)(Y + X) is not in (Y).
    assert not check_proper_ideal(delta_only(), Y, [Y])
