"""Batch verification driver.

Each subcommand loads a JSON config, runs one campaign of exact checks,
prints a line per check, and optionally writes a JSON report.  Reports are
deterministic: the same config and seed produce byte-identical output.

Exit codes: 0 when every check passed, 1 when any check failed, 2 for a
configuration problem.  Config keys are validated strictly; unknown keys
are rejected.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, List, Optional

from .algebra import parse_gen
from .omega import (
    OmegaSpec,
    submodule_closure_probe,
    verify_omega_axioms,
)
from .poly import Poly
from .scalars import ZERO, parse_scalar
from .linalg import determinant, matrix_nullspace
from .sampling import random_block_vector, random_poly
from .tensor import (
    LiftedModule,
    RestrictedModule,
    TensorVector,
    TrivialModule,
    WhittakerRestrictedModule,
    j_nilpotency_witness,
    lift_restricted,
    tensor_closure_probe,
)
from .whittaker import (
    ModuleVector,
    check_degree_reduction,
    example_psi14_witness,
    singular_vector_search,
    solve_twist,
    validate_whittaker,
)
from .algebra import verify_structure

__all__ = ["main", "run_command", "ConfigError"]

COMMANDS = (
    "verify-algebra",
    "verify-omega",
    "whittaker-search",
    "twist",
    "psi14",
    "tensor-probe",
    "degree-check",
)


class ConfigError(ValueError):
    """The config document is malformed or inconsistent."""


def _expect_keys(config: Any, required: set, optional: set, where: str) -> None:
    if not isinstance(config, dict):
        raise ConfigError(f"{where} must be a JSON object")
    keys = set(config)
    missing = required - keys
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _integer(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where} must be an integer")
    return value


def _positive_int(value: Any, where: str) -> int:
    if _integer(value, where) <= 0:
        raise ConfigError(f"{where} must be a positive integer")
    return value


def _boolean(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false")
    return value


def _object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return dict(value)


def _scalar(value: Any, where: str):
    try:
        return parse_scalar(str(value))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _poly(value: Any, where: str) -> Poly:
    try:
        return Poly.from_json(value)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{where}: malformed polynomial: {exc}") from exc


def _omega_spec(config: Any, where: str) -> OmegaSpec:
    if not isinstance(config, dict):
        raise ConfigError(f"{where} must be an object")
    _expect_keys(
        config, {"variant", "lambda"}, {"eta", "sigma", "delta"}, where
    )
    try:
        return OmegaSpec(
            variant=config["variant"],
            lam=_scalar(config["lambda"], f"{where}.lambda"),
            eta=(
                _scalar(config["eta"], f"{where}.eta")
                if "eta" in config
                else None
            ),
            sigma=(
                _poly(config["sigma"], f"{where}.sigma")
                if "sigma" in config
                else None
            ),
            delta=(
                _poly(config["delta"], f"{where}.delta")
                if "delta" in config
                else None
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _whittaker(config: dict, where: str):
    """The datum of a config section whose keys the caller has checked."""
    m = _integer(config["m"], f"{where}.m")
    n = _integer(config["n"], f"{where}.n")
    values = _object(config["values"], f"{where}.values")
    centrals = _object(config.get("centrals", {}), f"{where}.centrals")
    try:
        given = {parse_gen(key) for key in values}
        for key in centrals:
            g = parse_gen(key)
            if not g.is_central:
                raise ValueError(f"centrals key {key!r} is not c1, c2 or c3")
            if g in given:
                raise ValueError(f"{key} is given in both values and centrals")
        return validate_whittaker(values | centrals, m, n)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _restricted(config: Any, where: str) -> RestrictedModule:
    if not isinstance(config, dict) or "kind" not in config:
        raise ConfigError(f"{where} must be an object with a 'kind'")
    kind = config["kind"]
    if kind == "trivial":
        _expect_keys(config, {"kind"}, set(), where)
        return TrivialModule()
    if kind == "whittaker":
        _expect_keys(config, {"kind", "m", "n", "values"}, {"centrals"}, where)
        return WhittakerRestrictedModule(_whittaker(config, where))
    if kind in ("virasoro_style", "heisenberg_virasoro_style"):
        _expect_keys(config, {"kind", "inner"}, set(), where)
        return lift_restricted(kind, _restricted(config["inner"], f"{where}.inner"))
    raise ConfigError(f"{where}: unknown restricted-module kind {kind!r}")


def _module_vector(raw: Any, where: str) -> ModuleVector:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must map monomial strings to scalars")
    try:
        return ModuleVector.from_json(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _tensor_vector(
    module: RestrictedModule, records: Any, where: str
) -> TensorVector:
    if not isinstance(records, list) or not records:
        raise ConfigError(f"{where} must be a non-empty list of pairs")
    # A trivial module, lifted or not, is spanned by w: its vectors are
    # scalars c, read as c.w.
    innermost = module
    while isinstance(innermost, LiftedModule):
        innermost = innermost.inner
    pairs = []
    for i, record in enumerate(records):
        _expect_keys(record, {"poly", "vector"}, set(), f"{where}[{i}]")
        poly = _poly(record["poly"], f"{where}[{i}].poly")
        raw = record["vector"]
        if isinstance(innermost, TrivialModule):
            vector = ModuleVector.cyclic(_scalar(raw, f"{where}[{i}].vector"))
        else:
            vector = _module_vector(raw, f"{where}[{i}].vector")
        pairs.append((poly, vector))
    return TensorVector.from_pairs(pairs)


# -- campaign runners ----------------------------------------------------------


def _run_verify_algebra(config: dict, rng: random.Random) -> List[dict]:
    _expect_keys(config, {"index_bound"}, set(), "config")
    bound = _positive_int(config["index_bound"], "index_bound")
    report = verify_structure(bound)
    return [
        {
            "id": "bracket-antisymmetry",
            "ok": not any("antisymmetry" in v for v in report.violations),
            "pairs_checked": report.antisymmetry_checked,
        },
        {
            "id": "jacobi-identity",
            "ok": not any("jacobi" in v for v in report.violations),
            "triples_checked": report.jacobi_checked,
        },
        {
            "id": "bracket-grading",
            "ok": not any("grading" in v for v in report.violations),
            "pairs_checked": report.grading_checked,
        },
    ]


def _run_verify_omega(config: dict, rng: random.Random) -> List[dict]:
    _expect_keys(
        config, {"spec", "index_bound", "basis_cap"}, {"closure"}, "config"
    )
    spec = _omega_spec(config["spec"], "spec")
    bound = _positive_int(config["index_bound"], "index_bound")
    cap = _positive_int(config["basis_cap"], "basis_cap")
    # The closure section is read in full before the axiom sweep runs.
    seeds: List[Poly] = []
    closure = config.get("closure")
    if closure is not None:
        _expect_keys(
            closure,
            {"index_bound", "degree_cap"},
            {"seeds", "random_seeds", "expect_contains_one"},
            "closure",
        )
        seeds = [
            _poly(record, f"closure.seeds[{i}]")
            for i, record in enumerate(closure.get("seeds", []))
        ]
        for i, seed_poly in enumerate(seeds):
            if not seed_poly:
                raise ConfigError(f"closure.seeds[{i}] must be nonzero")
        random_cfg = closure.get("random_seeds")
        if random_cfg is not None:
            _expect_keys(
                random_cfg,
                {"count", "max_degree"},
                {"multiply_by_sigma", "zero_constant_term"},
                "closure.random_seeds",
            )
            for _ in range(_positive_int(random_cfg["count"], "count")):
                seed_poly = random_poly(
                    rng,
                    _positive_int(random_cfg["max_degree"], "max_degree"),
                    zero_constant_term=_boolean(
                        random_cfg.get("zero_constant_term", False),
                        "closure.random_seeds.zero_constant_term",
                    ),
                )
                if _boolean(
                    random_cfg.get("multiply_by_sigma", False),
                    "closure.random_seeds.multiply_by_sigma",
                ):
                    if spec.sigma is None:
                        raise ConfigError(
                            "closure.random_seeds.multiply_by_sigma needs sigma"
                        )
                    seed_poly = spec.sigma * seed_poly
                seeds.append(seed_poly)
        if not seeds:
            raise ConfigError("closure section supplies no seeds")
        expect = closure.get("expect_contains_one")
        if expect is not None:
            _boolean(expect, "closure.expect_contains_one")
        closure_bound = _positive_int(closure["index_bound"], "closure.index_bound")
        degree_cap = _positive_int(closure["degree_cap"], "closure.degree_cap")
    report = verify_omega_axioms(spec, bound, cap)
    checks = [
        {
            "id": "module-axioms",
            "ok": report.ok,
            "pairs_checked": report.pairs_checked,
            "violations": report.violations,
        }
    ]
    for i, seed_poly in enumerate(seeds):
        probe = submodule_closure_probe(spec, seed_poly, closure_bound, degree_cap)
        ok = True if expect is None else probe.contains_one == expect
        checks.append(
            {
                "id": f"closure-seed-{i}",
                "ok": ok,
                "seed": seed_poly.to_json(),
                "dimension": probe.dimension,
                "contains_one": probe.contains_one,
                "truncated": probe.truncated,
            }
        )
    return checks


def _run_whittaker_search(config: dict, rng: random.Random) -> List[dict]:
    _expect_keys(
        config,
        {"m", "n", "values", "weight_bound"},
        {"centrals", "expect_found", "expect_witness"},
        "config",
    )
    datum = _whittaker(config, "config")
    bound = _positive_int(config["weight_bound"], "weight_bound")
    expect_found = (
        _boolean(config["expect_found"], "expect_found")
        if "expect_found" in config
        else None
    )
    expected = (
        _module_vector(config["expect_witness"], "expect_witness")
        if "expect_witness" in config
        else None
    )
    if expected is not None and not expected:
        raise ConfigError("expect_witness must be nonzero")
    report = singular_vector_search(datum, bound)
    checks = [
        {
            "id": "search",
            "ok": True,
            "found": report.found,
            "witness": report.witness.to_json() if report.witness else None,
            "basis_size": report.basis_size,
            "weight_bound": report.weight_bound,
            "generating_set": report.operators,
        },
    ]
    if expect_found is not None:
        checks.append(
            {
                "id": "expected-outcome",
                "ok": report.found == expect_found,
                "expected_found": expect_found,
            }
        )
    if expected is not None:
        checks.append(
            {
                "id": "expected-witness",
                "ok": _same_ray(expected, report.witness),
                "expected": expected.to_json(),
            }
        )
    return checks


def _same_ray(v: ModuleVector, witness: Optional[ModuleVector]) -> bool:
    """Whether ``v`` is a nonzero multiple of ``witness``: a singular vector
    is determined only up to scale."""
    if not v or not witness:
        return False
    mono, coeff = next(iter(witness.terms.items()))
    return v == witness.scale(v.terms.get(mono, ZERO) * coeff.inverse())


def _run_twist(config: dict, rng: random.Random) -> List[dict]:
    _expect_keys(config, {"m", "n", "values"}, {"centrals"}, "config")
    datum = _whittaker(config, "config")
    try:
        result = solve_twist(datum)
    except ValueError as exc:
        raise ConfigError(f"twist preconditions: {exc}") from exc
    # Independent recomputation: push every L/H position of the support
    # through the translation again and compare with the solver's datum;
    # positions from m+n on must be cleared.
    positions = [g for g in datum.support() if g.family in ("L", "H")]
    recomputed_ok = all(
        result.twisted.psi(g) == datum.psi_element(result.translation.apply(g))
        for g in positions
    )
    normalized_ok = all(
        not result.twisted.psi(g) for g in positions if g.index >= datum.m + datum.n
    )
    return [
        {
            "id": "twist-solution",
            "ok": True,
            "a": [str(v) for v in result.a],
            "b": [str(v) for v in result.b],
            "x": result.translation.element.to_json(),
        },
        {"id": "twist-normalization", "ok": normalized_ok,
         "twisted": result.twisted.to_json()},
        {"id": "twist-recomputation", "ok": recomputed_ok},
    ]


def _run_psi14(config: dict, rng: random.Random) -> List[dict]:
    _expect_keys(config, {"alpha", "beta"}, set(), "config")
    alpha = _scalar(config["alpha"], "alpha")
    beta = _scalar(config["beta"], "beta")
    if not alpha or not beta:
        raise ConfigError("alpha and beta must be nonzero")
    result = example_psi14_witness(alpha, beta)
    det = determinant(result.matrix)
    kernel = matrix_nullspace(result.matrix)
    return [
        {"id": "matrix-singular", "ok": not det, "determinant": str(det)},
        {
            "id": "kernel-dimension",
            "ok": len(kernel) >= 1,
            "dimension": len(kernel),
        },
        {
            "id": "witness-verified",
            # example_psi14_witness raises unless the witness verifies.
            "ok": True,
            "coefficients": [str(c) for c in result.coefficients],
            "witness": result.witness.to_json(),
        },
    ]


def _run_tensor_probe(config: dict, rng: random.Random) -> List[dict]:
    _expect_keys(
        config,
        {"spec", "restricted", "seed_pairs", "monomial_bound"},
        {"expect_reached", "expect_j_witness"},
        "config",
    )
    spec = _omega_spec(config["spec"], "spec")
    module = _restricted(config["restricted"], "restricted")
    seed = _tensor_vector(module, config["seed_pairs"], "seed_pairs")
    if not seed:
        raise ConfigError("seed_pairs must give a nonzero tensor")
    bound = _positive_int(config["monomial_bound"], "monomial_bound")
    if "expect_reached" in config:
        _boolean(config["expect_reached"], "expect_reached")
    if config.get("expect_j_witness", "locally_finite") not in (
        "locally_finite",
        "injective_tail",
    ):
        raise ConfigError(
            'expect_j_witness must be "locally_finite" or "injective_tail"'
        )
    probe = tensor_closure_probe(spec, module, seed, bound)
    label = j_nilpotency_witness(spec, module, seed)
    ok = True
    if "expect_reached" in config:
        ok = ok and probe.reached_one_tensor == config["expect_reached"]
    if "expect_j_witness" in config:
        ok = ok and label == config["expect_j_witness"]
    return [
        {
            "id": "tensor-probe",
            "ok": ok,
            "reached_one_tensor": probe.reached_one_tensor,
            "obstruction": probe.obstruction,
            "j_witness": label,
            "bounds": {"monomial_bound": probe.monomial_bound},
            "monomials_generated": probe.monomials_generated,
            "steps": probe.steps,
        }
    ]


def _run_degree_check(config: dict, rng: random.Random) -> List[dict]:
    _expect_keys(
        config,
        {"m", "n", "values"},
        {"centrals", "block", "samples", "vector", "case", "max_exponent"},
        "config",
    )
    datum = _whittaker(config, "config")
    checks: List[dict] = []
    if "vector" in config:
        if "case" not in config:
            raise ConfigError("explicit vector mode needs a 'case'")
        case = config["case"]
        # Each case name starts with its block; the rest must match the
        # case the vector is in.
        if not isinstance(case, str) or case[:2] not in ("JI", "HL"):
            raise ConfigError(f"degree check: unknown case {case!r}")
        vector = _module_vector(config["vector"], "vector")
        try:
            report = check_degree_reduction(datum, vector, case[:2])
        except ValueError as exc:
            raise ConfigError(f"degree check: {exc}") from exc
        if report.case != case:
            raise ConfigError(
                f"degree check: the vector is in case {report.case}, not {case!r}"
            )
        checks.append({"id": "degree-drop", "ok": report.ok} | report.to_json())
        return checks
    block = config.get("block")
    if block not in ("JI", "HL"):
        raise ConfigError("sampling mode needs block 'JI' or 'HL'")
    samples = _positive_int(config.get("samples", 25), "samples")
    max_exponent = _positive_int(config.get("max_exponent", 2), "max_exponent")
    for k in range(samples):
        vector = random_block_vector(
            rng, datum, block, max_exponent=max_exponent
        )
        try:
            report = check_degree_reduction(datum, vector, block)
        except ValueError as exc:
            raise ConfigError(f"degree check: {exc}") from exc
        summary = report.to_json()
        fields = ("case", "degree_before", "predicted", "branch")
        checks.append(
            {"id": f"degree-drop-{k}", "ok": report.ok, "vector": vector.to_json()}
            | {key: summary[key] for key in fields}
        )
    return checks


_RUNNERS = {
    "verify-algebra": _run_verify_algebra,
    "verify-omega": _run_verify_omega,
    "whittaker-search": _run_whittaker_search,
    "twist": _run_twist,
    "psi14": _run_psi14,
    "tensor-probe": _run_tensor_probe,
    "degree-check": _run_degree_check,
}


def run_command(command: str, config: dict, seed: int = 0) -> dict:
    """Run one campaign and return the report document."""
    if command not in _RUNNERS:
        raise ConfigError(f"unknown command {command!r}")
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    rng = random.Random(seed)
    checks = _RUNNERS[command](config, rng)
    return {
        "command": command,
        "seed": seed,
        "checks": checks,
        "ok": all(check["ok"] for check in checks),
    }


def _render_text(report: dict, verbose: bool) -> str:
    lines = []
    for check in report["checks"]:
        status = "PASS" if check["ok"] else "FAIL"
        lines.append(f"{status} {check['id']}")
        if verbose:
            detail = {k: v for k, v in check.items() if k not in ("id", "ok")}
            lines.append(json.dumps(detail, sort_keys=True, default=str))
    lines.append("OK" if report["ok"] else "FAILED")
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="planargca",
        description="Exact verification campaigns for the planar Galilean "
        "conformal algebra and its modules.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--json", dest="json_path", help="write the JSON report here")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_command(args.command, config, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(_render_text(report, args.verbose))
    if args.json_path:
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
