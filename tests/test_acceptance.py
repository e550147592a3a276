"""Acceptance campaign: one test per criterion, everything exact.

Criteria that correspond to CLI campaigns run through ``run_command`` with
pinned configs; the final test reruns every campaign with the same seed and
requires byte-identical JSON.  Each test prints one PASS line on success
(run with ``pytest -s`` or ``-rA`` to see them).
"""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

from planargca.algebra import H, I, J, L
from planargca.cli import run_command
from planargca.linalg import determinant, matrix_nullspace
from planargca.omega import OmegaSpec
from planargca.pbw import PBWMonomial, straighten
from planargca.poly import P_ONE, X, Y
from planargca.sampling import random_block_vector, random_word
from planargca.scalars import ONE, ZERO, sc
from planargca.tensor import (
    TensorVector,
    TrivialModule,
    WhittakerRestrictedModule,
    j_nilpotency_witness,
    tensor_act,
    vandermonde_extract,
)
from planargca.whittaker import (
    ModuleVector,
    check_degree_reduction,
    example_psi14_witness,
    principal_compare,
    psi14_matrix,
    singular_vector_search,
    solve_twist,
    validate_whittaker,
    vector_degree,
)
from planargca.scalars import scalar_pow

from test_pbw import reference_straighten

SIGMA_ONE = [{"xexp": 0, "yexp": 0, "coeff": "1"}]
SIGMA_X = [{"xexp": 1, "yexp": 0, "coeff": "1"}]

# Campaign registry: id -> (command, config, seed).  The criteria below run
# these once through run_command; the determinism criterion reruns each one
# and compares the serialized reports byte for byte.
_OMEGA_SPECS = {
    "sigma0-sigma1": {"variant": "sigma_zero", "lambda": "2", "eta": "1/3",
                      "sigma": SIGMA_ONE},
    "sigma0-sigmaX": {"variant": "sigma_zero", "lambda": "2", "eta": "1/3",
                      "sigma": SIGMA_X},
    "0sigma-sigma1": {"variant": "zero_sigma", "lambda": "2", "eta": "1/3",
                      "sigma": SIGMA_ONE},
    "0sigma-sigmaX": {"variant": "zero_sigma", "lambda": "2", "eta": "1/3",
                      "sigma": SIGMA_X},
    "delta": {"variant": "delta_only", "lambda": "2", "delta": SIGMA_X},
}

# Closure seeds for the reducible instances stay inside the canonical proper
# submodule (sigma-multiples, or vanishing constant term for the delta
# family); arbitrary polynomials can generate the whole module even when it
# is reducible, so they witness nothing.
_CLOSURE_SEEDS = {
    "sigma0-sigma1": ({"count": 10, "max_degree": 3}, True),
    "sigma0-sigmaX": (
        {"count": 10, "max_degree": 3, "multiply_by_sigma": True},
        False,
    ),
    "0sigma-sigma1": ({"count": 10, "max_degree": 3}, True),
    "0sigma-sigmaX": (
        {"count": 10, "max_degree": 3, "multiply_by_sigma": True},
        False,
    ),
    "delta": (
        {"count": 10, "max_degree": 3, "zero_constant_term": True},
        False,
    ),
}

CAMPAIGNS = {
    "algebra-structure": ("verify-algebra", {"index_bound": 4}, 0),
}
for _name, _spec in _OMEGA_SPECS.items():
    CAMPAIGNS[f"omega-axioms-{_name}"] = (
        "verify-omega",
        {"spec": _spec, "index_bound": 4, "basis_cap": 3},
        0,
    )
for _i, (_name, (_seeds, _expect)) in enumerate(_CLOSURE_SEEDS.items()):
    CAMPAIGNS[f"omega-closure-{_name}"] = (
        "verify-omega",
        {
            "spec": _OMEGA_SPECS[_name],
            "index_bound": 1,
            "basis_cap": 1,
            "closure": {
                "index_bound": 4,
                "degree_cap": 10,
                "random_seeds": _seeds,
                "expect_contains_one": _expect,
            },
        },
        _i + 1,
    )
CAMPAIGNS |= {
    "search-11": (
        "whittaker-search",
        {
            "m": 1, "n": 1,
            "values": {"I[1]": "1", "J[1]": "1"},
            "weight_bound": 4,
            "expect_found": False,
        },
        0,
    ),
    "search-22": (
        "whittaker-search",
        {
            "m": 2, "n": 2,
            "values": {"I[3]": "1", "J[3]": "1"},
            "weight_bound": 4,
            "expect_found": False,
        },
        0,
    ),
    "search-31": (
        "whittaker-search",
        {
            "m": 3, "n": 1,
            "values": {"I[3]": "1", "J[3]": "1"},
            "weight_bound": 4,
            "expect_found": False,
        },
        0,
    ),
    "twist-11": (
        "twist",
        {
            "m": 1, "n": 1,
            "values": {"I[1]": "1", "J[1]": "1", "L[2]": "6"},
        },
        0,
    ),
    "psi14": ("psi14", {"alpha": "1", "beta": "1"}, 0),
    "tensor-probe": (
        "tensor-probe",
        {
            "spec": {"variant": "sigma_zero", "lambda": "2", "eta": "0",
                     "sigma": SIGMA_ONE},
            "restricted": {
                "kind": "whittaker",
                "m": 1, "n": 1,
                "values": {"I[1]": "1", "J[1]": "1"},
            },
            "seed_pairs": [
                {"poly": [{"xexp": 2, "yexp": 1, "coeff": "1"}],
                 "vector": {"1": "1"}}
            ],
            "monomial_bound": 3,
            "expect_reached": True,
            "expect_j_witness": "locally_finite",
        },
        0,
    ),
    "degree-22-ji": (
        "degree-check",
        {
            "m": 2, "n": 2,
            "values": {"I[3]": "1", "J[3]": "1"},
            "block": "JI",
            "samples": 25,
        },
        7,
    ),
    "degree-22-hl": (
        "degree-check",
        {
            "m": 2, "n": 2,
            "values": {"I[3]": "1", "J[3]": "1"},
            "block": "HL",
            "samples": 25,
        },
        8,
    ),
}

_report_cache = {}


def campaign_report(name):
    if name not in _report_cache:
        command, config, seed = CAMPAIGNS[name]
        _report_cache[name] = run_command(command, config, seed=seed)
    return _report_cache[name]


def checks_by_id(report, prefix):
    return [c for c in report["checks"] if c["id"].startswith(prefix)]


def test_criterion_1_structure_constants():
    started = time.time()
    report = campaign_report("algebra-structure")
    elapsed = time.time() - started
    assert report["ok"], report
    jacobi = checks_by_id(report, "jacobi-identity")[0]
    assert jacobi["triples_checked"] == 10660
    assert elapsed < 60.0
    print(
        f"PASS criterion-1: antisymmetry and Jacobi exhaustive to index 4 "
        f"({elapsed:.1f}s)"
    )


def test_criterion_2_omega_axioms():
    started = time.time()
    for name in _OMEGA_SPECS:
        report = campaign_report(f"omega-axioms-{name}")
        axiom = checks_by_id(report, "module-axioms")[0]
        assert axiom["ok"], (name, axiom)
        assert axiom["pairs_checked"] == 780
    elapsed = time.time() - started
    assert elapsed < 60.0
    print(f"PASS criterion-2: module axioms for all five instances ({elapsed:.1f}s)")


_CLOSURE_SPANS = {
    "sigma0-sigma1": 66,
    "sigma0-sigmaX": 55,
    "0sigma-sigma1": 66,
    "0sigma-sigmaX": 55,
}


def test_criterion_3_closure_corroboration():
    for name, (_, expected) in _CLOSURE_SEEDS.items():
        report = campaign_report(f"omega-closure-{name}")
        closures = checks_by_id(report, "closure-seed-")
        assert len(closures) == 10, name
        for check in closures:
            assert check["ok"], (name, check)
            assert check["contains_one"] == expected
            # All of P≤10 for constant sigma, X * P≤9 for sigma = X.
            if name in _CLOSURE_SPANS:
                assert check["dimension"] == _CLOSURE_SPANS[name], (name, check)
    print(
        "PASS criterion-3: closure spans all of P<=10 for constant sigma, "
        "X * P<=9 for sigma = X, and misses 1 for the delta family (10 seeds each)"
    )


def test_criterion_4_search_forward_evidence():
    for name in ("search-11", "search-22", "search-31"):
        report = campaign_report(name)
        assert report["ok"], (name, report)
        search = checks_by_id(report, "search")[0]
        assert search["found"] is False
    print(
        "PASS criterion-4: no singular vector up to weight 4 for "
        "(1,1), (2,2), (3,1) with nonzero top values"
    )


def mono(*factors):
    return PBWMonomial(tuple(factors))


def test_criterion_5_search_reverse_witnesses():
    # Vanishing I-value: the witness is I[n-1] applied to the cyclic vector.
    for m, n in ((1, 1), (2, 2)):
        top = m + n - 1
        datum = validate_whittaker({f"J[{top}]": "1"}, m, n)
        report = singular_vector_search(datum, 4)
        assert report.found
        assert report.witness == ModuleVector.single(mono((I(n - 1), 1)))

    # Mixed pair witness at (m, m+1): I[m] + (alpha/beta) J[m].
    for m, alpha, beta in ((1, sc(1), sc(1)), (2, sc(3), sc(2))):
        n = m + 1
        top = m + n - 1
        datum = validate_whittaker(
            {f"I[{top}]": str(alpha), f"J[{top}]": str(beta)}, m, n
        )
        report = singular_vector_search(datum, 3)
        assert report.found
        expected = ModuleVector(
            {mono((I(m), 1)): ONE, mono((J(m), 1)): alpha / beta}
        )
        assert report.witness == expected

    # L[m-1] witness at (m, m-1) after twist normalization.
    for m, values in (
        (1, {"I[0]": "2", "J[0]": "3", "L[1]": "4", "H[1]": "-1"}),
        (2, {"I[2]": "1", "J[2]": "1", "I[1]": "1", "J[1]": "2",
             "L[3]": "5", "H[3]": "1", "L[4]": "-2"}),
    ):
        n = m - 1
        datum = validate_whittaker(values, m, n)
        twisted = solve_twist(datum).twisted
        report = singular_vector_search(twisted, 4)
        assert report.found, (m, n)
        assert report.witness == ModuleVector.single(mono((L(m - 1), 1)))

    # The five-parameter witness at (1, 4) through the singular matrix.
    result = example_psi14_witness(sc(1), sc(1))
    kernel = matrix_nullspace(result.matrix)
    assert len(kernel) == 1
    assert determinant(result.matrix) == ZERO
    rng = random.Random(14)
    for _ in range(5):
        alpha = sc(Fraction(rng.randint(1, 9), rng.randint(1, 3)))
        beta = sc(Fraction(rng.randint(1, 9), rng.randint(1, 3)))
        assert determinant(psi14_matrix(alpha, beta)) == ZERO
    report = singular_vector_search(result.datum, 2)
    assert report.found
    lead_coeff = result.witness.terms[mono((I(2), 1))]
    assert report.witness == result.witness.scale(lead_coeff.inverse())
    print("PASS criterion-5: every reverse-direction witness found exactly")


def test_criterion_6_twist_correctness():
    report = campaign_report("twist-11")
    assert report["ok"], report
    solution = checks_by_id(report, "twist-solution")[0]
    assert solution["a"] == ["1"] and solution["b"] == ["1"]
    twisted = checks_by_id(report, "twist-normalization")[0]["twisted"]
    assert "L[2]" not in twisted["values"]
    assert "H[2]" not in twisted["values"]

    # Full 6x6 instance at (m, n) = (2, 0): round-trip through the
    # translation must reproduce the solver's twisted values exactly.
    values = {
        "I[0]": "2", "J[0]": "-1", "I[1]": "3", "J[1]": "1/2",
        "L[2]": "5", "L[3]": "-7", "L[4]": "1/3", "H[2]": "4", "H[3]": "-2",
    }
    datum = validate_whittaker(values, 2, 0)
    result = solve_twist(datum)
    assert len(result.a) == 3 and len(result.b) == 3
    for p in range(2, 5):
        recomputed = datum.psi_element(result.translation.apply(L(p)))
        assert result.twisted.psi(L(p)) == recomputed == ZERO
    for p in range(2, 4):
        recomputed = datum.psi_element(result.translation.apply(H(p)))
        assert result.twisted.psi(H(p)) == recomputed == ZERO
    print("PASS criterion-6: twist solves and round-trips exactly")


def test_criterion_7_degree_machinery():
    rng = random.Random(2024)
    pairs = [
        (
            tuple(rng.randint(0, 3) for _ in range(3)),
            tuple(rng.randint(0, 3) for _ in range(3)),
        )
        for _ in range(200)
    ]
    for p in pairs:
        assert principal_compare(p, p) == 0
    for a, b in itertools.combinations(pairs[:40], 2):
        forward = principal_compare(a, b)
        assert forward == -principal_compare(b, a)
        if a != b and forward == 0:
            # Distinct pairs never compare equal (trichotomy).
            assert a == b
    for a, b, c in zip(pairs, pairs[1:], pairs[2:]):
        if principal_compare(a, b) <= 0 and principal_compare(b, c) <= 0:
            assert principal_compare(a, c) <= 0

    for m, n in ((1, 1), (2, 2), (3, 1)):
        top = m + n - 1
        datum = validate_whittaker({f"I[{top}]": "1", f"J[{top}]": "1"}, m, n)
        rng = random.Random(100 * m + n)
        for block in ("JI", "HL"):
            block_length = n if block == "JI" else m
            for _ in range(50):
                v = random_block_vector(rng, datum, block, max_exponent=2)
                first, _ = vector_degree(v, block, block_length)
                if any(first):
                    case = (
                        "JI_j_nonzero" if block == "JI" else "HL_h_nonzero"
                    )
                else:
                    case = "JI_i_only" if block == "JI" else "HL_l_only"
                report = check_degree_reduction(datum, v, block)
                assert report.case == case
                assert report.ok, (m, n, block, str(v))
    print(
        "PASS criterion-7: principal order laws and 300 degree-drop checks, "
        "all exact"
    )


def test_criterion_8_tensor_probes():
    datum = validate_whittaker({"I[1]": "1", "J[1]": "1"}, 1, 1)
    module = WhittakerRestrictedModule(datum)
    spec = OmegaSpec(variant="sigma_zero", lam=sc(2), eta=sc(0), sigma=P_ONE)
    w = ModuleVector.cyclic()

    # Vandermonde reassembly at three fresh indices.
    t = TensorVector.from_pairs([(X * Y + Y * Y, w), (X, w)])
    layers = vandermonde_extract(spec, module, t, 2)
    base = module.annihilation_bound(w)
    for fresh in (base + 7, base + 9, base + 12):
        expected = tensor_act(spec, module, H(fresh), t).scale(
            scalar_pow(spec.lam, -fresh)
        )
        reassembled = TensorVector.combine(
            (scalar_pow(sc(fresh), j), layer) for j, layer in enumerate(layers)
        )
        assert reassembled == expected

    # The CLI campaign covers the closure probe from X^2 Y (x) w.
    report = campaign_report("tensor-probe")
    assert report["ok"], report
    probe = checks_by_id(report, "tensor-probe")[0]
    assert probe["reached_one_tensor"]
    assert probe["j_witness"] == "locally_finite"

    # The J-tail separates the two families on all four sampled instances.
    zspec = OmegaSpec(
        variant="zero_sigma", lam=sc(2), eta=sc(0), sigma=P_ONE
    )
    trivial = TrivialModule()
    instances = [
        (spec, module, w, "locally_finite"),
        (spec, trivial, ModuleVector.cyclic(), "locally_finite"),
        (zspec, module, w, "injective_tail"),
        (zspec, trivial, ModuleVector.cyclic(), "injective_tail"),
    ]
    for which_spec, which_module, vec0, expected in instances:
        t0 = TensorVector.from_pairs([(X + P_ONE, vec0)])
        assert j_nilpotency_witness(which_spec, which_module, t0) == expected
    print("PASS criterion-8: Vandermonde, closure and J-tail probes agree")


def test_criterion_9_straightening_confluence():
    # The engine under both association orders against the worklist
    # reference under both inversion orders.
    rng = random.Random(404)
    for _ in range(100):
        word = random_word(rng, 5, 3)
        expected = reference_straighten(word, "leftmost")
        assert reference_straighten(word, "rightmost") == expected
        for strategy in ("leftmost", "rightmost"):
            assert straighten(word, strategy) == expected
    print("PASS criterion-9: confluence on 100 random words")


def test_criterion_10_cli_determinism():
    started = time.time()
    for name, (command, config, seed) in CAMPAIGNS.items():
        first = json.dumps(
            campaign_report(name), indent=2, sort_keys=True
        ).encode()
        second = json.dumps(
            run_command(command, config, seed=seed), indent=2, sort_keys=True
        ).encode()
        assert first == second, f"campaign {name} is not deterministic"
    elapsed = time.time() - started
    print(
        f"PASS criterion-10: {len(CAMPAIGNS)} campaigns rerun byte-identical "
        f"({elapsed:.1f}s)"
    )


# sha256 of each campaign's report as ``planargca --json`` writes it.  A
# change that alters a report on purpose re-pins its value here and says
# why in CHANGES.md.
_REPORT_SHA256 = {
    "algebra-structure":
        "1726a72221b492b5fca0230f09401e8d3a40254dda7a8d7fe3a02f0a4dd24f14",
    "degree-22-hl":
        "f0650be2126ea0262ccb9a7be817b8e466da5a007bef0492084f7beb46dd5bf0",
    "degree-22-ji":
        "0ad38653bb5f88958c158834a21f8cdc342906189a88f3756ba8961a67d19fca",
    "omega-axioms-0sigma-sigma1":
        "2fbc186a8e90cc5787257217d1bca546f5688e19f4eb38d98051e506c018a298",
    "omega-axioms-0sigma-sigmaX":
        "2fbc186a8e90cc5787257217d1bca546f5688e19f4eb38d98051e506c018a298",
    "omega-axioms-delta":
        "2fbc186a8e90cc5787257217d1bca546f5688e19f4eb38d98051e506c018a298",
    "omega-axioms-sigma0-sigma1":
        "2fbc186a8e90cc5787257217d1bca546f5688e19f4eb38d98051e506c018a298",
    "omega-axioms-sigma0-sigmaX":
        "2fbc186a8e90cc5787257217d1bca546f5688e19f4eb38d98051e506c018a298",
    "omega-closure-0sigma-sigma1":
        "ef3ff1c83acd1d0dc2cad0d7571eade60436089d41e0ebb088a322145baca5a6",
    "omega-closure-0sigma-sigmaX":
        "878e8754a32fff05e543eac997f7e18b6eab06c377d26ad86b410b3a59df1f6a",
    "omega-closure-delta":
        "9bdb42f5414f06875aff0c0e685e336f70a2ff5ec7cd5e87050171f246533e88",
    "omega-closure-sigma0-sigma1":
        "054aaa00a43a49d4dcf28fb9dfa66197222eb2257c9bb3edd8fe77c91524508a",
    "omega-closure-sigma0-sigmaX":
        "f3ebd18df6af8d2f64c62800ad966fab6e5633ecac43c162d85f3b1bbdc4398e",
    "psi14":
        "979ee1893e8725fc6172977edc26b7c157122062d5fc3f1ca126fe597260d15c",
    "search-11":
        "e0322c7ed9aec8e2d17042e8e435f0b5efb286f8061a4e5d3c5271e76415e093",
    "search-22":
        "c1e1e2542505d7c55e8d15a77260bc07e0e3891cd23ec7e0e7d4e4dd43691389",
    "search-31":
        "5ffb951fc5ea0cfbf004ddaef507213b309c3d4578381a4c1bc9c72f2d970bc4",
    "tensor-probe":
        "bb04e5ed5567ad966c611100de97d307633c2586b913c871da7c0dd04d0c5c66",
    "twist-11":
        "143578f73da8ef97f837e89ff6957bd8196b9c9d96efae41ade71acd9792bfd3",
}


def test_campaign_reports_are_pinned():
    assert set(_REPORT_SHA256) == set(CAMPAIGNS)
    for name in CAMPAIGNS:
        payload = json.dumps(campaign_report(name), indent=2, sort_keys=True) + "\n"
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert digest == _REPORT_SHA256[name], f"campaign {name} report changed"
    print(f"PASS pinned: {len(CAMPAIGNS)} campaign reports match their sha256")
