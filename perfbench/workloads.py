"""Seeded inputs for the three benchmark workloads, with pinned verdicts.

A workload runs in *rounds*.  A round is a fixed mix of items, and every
round draws fresh inputs from ``random.Random(f"{workload}:{seed}:{round}")``
so no two items repeat an input and results never hinge on a cache left by
an earlier identical call.  An item is one ``planargca.cli.run_command``
call (or, for straightening, one batch of ``pbw.straighten`` calls); the
program sees only the generated configs.

Every item pins mathematical verdicts only: ``contains_one`` for closure,
``found`` and the (1, 2) witness for the search, ``ok`` for the axiom,
Jacobi, confluence, degree-drop, twist, psi14 and tensor items.  Sizes such
as ``dimension``, ``truncated`` or ``basis_size`` are deliberately not
pinned.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

WORKLOADS = ("closure", "search", "sweep")

SIGMA_ONE = [{"xexp": 0, "yexp": 0, "coeff": "1"}]
SIGMA_X = [{"xexp": 1, "yexp": 0, "coeff": "1"}]

# The five acceptance specs; closure seeds for the reducible ones stay in
# the canonical proper submodule (sigma-multiples, or no constant term for
# the delta family), so "never reaches 1" is the expected verdict there.
OMEGA_SPECS = {
    "sigma0-sigma1": ({"variant": "sigma_zero", "lambda": "2", "eta": "1/3",
                       "sigma": SIGMA_ONE}, "free", True),
    "sigma0-sigmaX": ({"variant": "sigma_zero", "lambda": "2", "eta": "1/3",
                       "sigma": SIGMA_X}, "sigma", False),
    "0sigma-sigma1": ({"variant": "zero_sigma", "lambda": "2", "eta": "1/3",
                       "sigma": SIGMA_ONE}, "free", True),
    "0sigma-sigmaX": ({"variant": "zero_sigma", "lambda": "2", "eta": "1/3",
                       "sigma": SIGMA_X}, "sigma", False),
    "delta": ({"variant": "delta_only", "lambda": "2", "delta": SIGMA_X},
              "no_constant", False),
}

CLOSURE_INDEX_BOUND = 4
CLOSURE_DEGREE_CAP = 10
SEARCH_WEIGHT_BOUND = 5


@dataclass
class Item:
    """One timed unit of work and the verdicts it must reproduce."""

    label: str
    call: Callable[[], dict]
    verdict: Callable[[dict], bool]


def report_bytes(report: dict) -> bytes:
    """The bytes ``planargca --json`` would write for this report."""
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


# -- small exact values --------------------------------------------------------


def _rational(rng: random.Random, nonzero: bool = True) -> Fraction:
    while True:
        value = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if value or not nonzero:
            return value


def _gaussian(rng: random.Random, complex_part: bool) -> str:
    """A nonzero Gaussian rational in the CLI's scalar syntax."""
    from planargca.scalars import Scalar

    re = _rational(rng, nonzero=not complex_part)
    im = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) if complex_part else 0
    return str(Scalar(re, im))


def _poly_json(terms: Dict[tuple, Fraction]) -> list:
    from planargca.poly import Poly
    from planargca.scalars import Scalar

    return Poly({mono: Scalar(c) for mono, c in terms.items()}).to_json()


# -- closure -----------------------------------------------------------------


# Closure cost depends mostly on the seed's support, far less on its
# coefficients, so supports follow a fixed schedule and only coefficients
# come from the seed: round r gives spec s the support (r + s) mod 5.
# Every round uses each support once, and runs with different seeds do the
# same amount of work per round.  No support contains 1, so each one fits
# the delta family as is; sigma=X seeds are shifted by one power of X.
CLOSURE_SUPPORTS = (
    ((1, 0), (0, 2)),
    ((0, 1), (2, 1)),
    ((2, 0), (0, 3)),
    ((1, 1), (3, 0)),
    ((0, 2), (1, 2)),
)


def _seed_poly(rng: random.Random, support, x_shift: int = 0) -> list:
    return _poly_json({(a + x_shift, b): _rational(rng) for a, b in support})


def _validate_closure_seed(seed: list, kind: str) -> None:
    from planargca.poly import Poly

    poly = Poly.from_json(seed)
    if not poly:
        raise ValueError("closure seed is zero")
    if kind == "sigma" and any(a == 0 for a, _ in poly.terms):
        raise ValueError("sigma=X seed is not a multiple of X")
    if kind == "no_constant" and (0, 0) in poly.terms:
        raise ValueError("delta seed has a constant term")


def closure_round(rng: random.Random, cli, round_index: int) -> List[Item]:
    items = []
    for position, (name, (spec, kind, expect)) in enumerate(OMEGA_SPECS.items()):
        support = CLOSURE_SUPPORTS[(round_index + position) % len(CLOSURE_SUPPORTS)]
        seed = _seed_poly(rng, support, 1 if kind == "sigma" else 0)
        _validate_closure_seed(seed, kind)
        config = {
            "spec": spec,
            "index_bound": 1,
            "basis_cap": 1,
            "closure": {
                "index_bound": CLOSURE_INDEX_BOUND,
                "degree_cap": CLOSURE_DEGREE_CAP,
                "seeds": [seed],
            },
        }
        items.append(Item(
            f"closure/{name}",
            _run(cli, "verify-omega", config, 0),
            _closure_verdict(expect),
        ))
    return items


def _closure_verdict(expect: bool) -> Callable[[dict], bool]:
    def verdict(report: dict) -> bool:
        closures = [c for c in report["checks"] if c["id"].startswith("closure-seed-")]
        return (
            report["ok"]
            and len(closures) == 1
            and closures[0]["contains_one"] is expect
        )

    return verdict


# -- search ------------------------------------------------------------------

# (m, n): the pair witness instance (1, 2) has a singular vector
# I[1] + (alpha/beta) J[1]; the others have none with nonzero top values.
SEARCH_INSTANCES = ((1, 1), (1, 2), (2, 2), (3, 1))


def search_round(rng: random.Random, cli, round_index: int) -> List[Item]:
    from planargca.scalars import parse_scalar
    from planargca.whittaker import validate_whittaker

    items = []
    for position, (m, n) in enumerate(SEARCH_INSTANCES):
        # Half the instances of every round take the complex scalar path,
        # alternating between rounds.
        complex_part = (position + round_index) % 2 == 0
        top = m + n - 1
        values = {
            f"I[{top}]": _gaussian(rng, complex_part),
            f"J[{top}]": _gaussian(rng, complex_part),
        }
        if m >= n:
            for p in range(n, top):
                values[f"I[{p}]"] = _gaussian(rng, complex_part)
                values[f"J[{p}]"] = _gaussian(rng, complex_part)
        centrals = {c: _gaussian(rng, complex_part) for c in ("c1", "c2", "c3")}
        validate_whittaker(dict(values, **centrals), m, n)
        config = {
            "m": m,
            "n": n,
            "values": values,
            "centrals": centrals,
            "weight_bound": SEARCH_WEIGHT_BOUND,
        }
        witness = None
        if (m, n) == (1, 2):
            ratio = parse_scalar(values["I[2]"]) / parse_scalar(values["J[2]"])
            witness = {"I[1]": "1", "J[1]": str(ratio)}
        items.append(Item(
            f"search/{m}{n}",
            _run(cli, "whittaker-search", config, 0),
            _search_verdict(witness),
        ))
    return items


def _search_verdict(witness: Optional[dict]) -> Callable[[dict], bool]:
    def verdict(report: dict) -> bool:
        search = [c for c in report["checks"] if c["id"] == "search"]
        return (
            report["ok"]
            and len(search) == 1
            and search[0]["found"] is (witness is not None)
            and search[0]["witness"] == witness
        )

    return verdict


# -- sweep -------------------------------------------------------------------


def sweep_round(rng: random.Random, cli) -> List[Item]:
    from planargca import pbw
    from planargca.sampling import random_word
    from planargca.whittaker import validate_whittaker

    items = [Item(
        "sweep/verify-algebra",
        _run(cli, "verify-algebra", {"index_bound": 2}, 0),
        _all_ok,
    )]

    # The five acceptance specs, unchanged: their axiom sweeps dominate a
    # round's time, so fixed parameters keep rounds of different seeds
    # comparable while the short items below carry the seeded inputs.
    for name, (spec, _, _) in OMEGA_SPECS.items():
        config = {"spec": spec, "index_bound": 2, "basis_cap": 2}
        items.append(Item(f"sweep/omega-axioms-{name}",
                          _run(cli, "verify-omega", config, 0), _all_ok))

    for batch in range(2):
        words = [random_word(rng, 5, 3) for _ in range(10)]
        items.append(Item(f"sweep/straighten-{batch}",
                          _straighten_batch(pbw, words), _all_ok))

    for (m, n), block in (((2, 2), "JI"), ((3, 1), "HL")):
        top = m + n - 1
        values = {f"I[{top}]": _gaussian(rng, False), f"J[{top}]": _gaussian(rng, False)}
        validate_whittaker(values, m, n)
        config = {"m": m, "n": n, "values": values, "block": block,
                  "samples": 6, "max_exponent": 1}
        items.append(Item(f"sweep/degree-{m}{n}-{block}",
                          _run(cli, "degree-check", config, rng.randrange(2**31)),
                          _all_ok))

    for m, n in ((1, 1), (2, 1)):
        top = m + n - 1
        values = {f"I[{top}]": _gaussian(rng, False), f"J[{top}]": _gaussian(rng, False)}
        for p in range(m + n, 2 * m + 1):
            values[f"L[{p}]"] = _gaussian(rng, False)
        for p in range(m + n, 2 * m):
            values[f"H[{p}]"] = _gaussian(rng, False)
        validate_whittaker(values, m, n)
        items.append(Item(f"sweep/twist-{m}{n}",
                          _run(cli, "twist", {"m": m, "n": n, "values": values}, 0),
                          _all_ok))

    psi14 = {"alpha": _gaussian(rng, False), "beta": _gaussian(rng, False)}
    items.append(Item("sweep/psi14", _run(cli, "psi14", psi14, 0), _all_ok))

    for variant, j_witness in (("sigma_zero", "locally_finite"),
                               ("zero_sigma", "injective_tail")):
        values = {"I[1]": _gaussian(rng, False), "J[1]": _gaussian(rng, False)}
        validate_whittaker(values, 1, 1)
        config = {
            "spec": {"variant": variant, "lambda": _gaussian(rng, False),
                     "eta": str(_rational(rng, nonzero=False)),
                     "sigma": _poly_json({(0, 0): _rational(rng)})},
            "restricted": {"kind": "whittaker", "m": 1, "n": 1, "values": values},
            "seed_pairs": [{"poly": _seed_poly(rng, ((2, 1), (1, 0))),
                            "vector": {"1": "1"}}],
            "monomial_bound": 3,
        }
        items.append(Item(f"sweep/tensor-{variant}",
                          _run(cli, "tensor-probe", config, 0),
                          _tensor_verdict(j_witness)))
    return items


def _straighten_batch(pbw, words) -> Callable[[], dict]:
    def call() -> dict:
        checks = []
        for i, word in enumerate(words):
            left = pbw.straighten(word, "leftmost")
            right = pbw.straighten(word, "rightmost")
            checks.append({"id": f"confluence-{i}", "ok": left == right,
                           "normal_form": str(left)})
        return {"checks": checks, "ok": all(c["ok"] for c in checks)}

    return call


def _tensor_verdict(j_witness: str) -> Callable[[dict], bool]:
    def verdict(report: dict) -> bool:
        probe = report["checks"][0]
        return (
            report["ok"]
            and probe["reached_one_tensor"] is True
            and probe["j_witness"] == j_witness
        )

    return verdict


def _all_ok(report: dict) -> bool:
    return report["ok"] and all(check["ok"] for check in report["checks"])


def _run(cli, command: str, config: dict, seed: int) -> Callable[[], dict]:
    # Looked up on the module at call time, so a traced run sees the
    # instrumented entry point.
    return lambda: cli.run_command(command, config, seed=seed)


def make_round(workload: str, seed: int, round_index: int, cli) -> List[Item]:
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    if workload == "closure":
        return closure_round(rng, cli, round_index)
    if workload == "search":
        return search_round(rng, cli, round_index)
    if workload == "sweep":
        return sweep_round(rng, cli)
    raise ValueError(f"unknown workload {workload!r}")
