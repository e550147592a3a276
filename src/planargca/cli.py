"""Batch verification driver.

Each subcommand loads a JSON config, runs one campaign of exact checks,
prints a line per check, and optionally writes a JSON report.  Reports are
deterministic: the same config and seed produce byte-identical output.

Each config section is read through one table that maps each of its keys
to a reader.  ``_read`` refuses missing and unknown keys and returns every
present value already typed, so a campaign has read its whole config
before any work runs.

Exit codes: 0 when every check passed, 1 when any check failed, 2 for a
configuration problem.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from typing import Any, Callable, List, Optional

from .algebra import parse_gen, verify_structure
from .linalg import determinant
from .omega import (
    OmegaSpec,
    check_proper_ideal,
    submodule_closure_probe,
    verify_omega_axioms,
)
from .poly import Poly
from .sampling import random_block_vector, random_poly
from .scalars import ZERO, parse_scalar
from .tensor import (
    _LIFT_KILLS,
    RestrictedModule,
    TensorVector,
    TrivialModule,
    WhittakerRestrictedModule,
    j_nilpotency_witness,
    lift_restricted,
    tensor_closure_probe,
)
from .whittaker import (
    _BLOCKS,
    ModuleVector,
    WhittakerDatum,
    check_degree_reduction,
    example_psi14_witness,
    singular_vector_search,
    solve_twist,
    validate_whittaker,
)

__all__ = ["main", "run_command", "ConfigError"]


class ConfigError(ValueError):
    """The config document is malformed or inconsistent."""


# A reader takes a raw JSON value and the path naming it in messages, and
# returns the value typed or raises ``ConfigError``.
Reader = Callable[[Any, str], Any]


def _read(config: Any, where: str, required: dict, optional: dict = {}) -> dict:
    """Every present key of one config section, typed by its reader."""
    if not isinstance(config, dict):
        raise ConfigError(f"{where} must be a JSON object")
    missing = required.keys() - config.keys()
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    readers = required | optional
    unknown = config.keys() - readers.keys()
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    return {key: read(config[key], f"{where}.{key}")
            for key, read in readers.items() if key in config}


def _section(required: dict, optional: dict = {}) -> Reader:
    """The reader of a nested section with its own key table."""
    return lambda value, where: _read(value, where, required, optional)


def _list_of(read: Reader) -> Reader:
    def read_list(value: Any, where: str) -> list:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a JSON list")
        return [read(item, f"{where}[{i}]") for i, item in enumerate(value)]

    return read_list


def _nonzero(read: Reader) -> Reader:
    def read_nonzero(value: Any, where: str):
        typed = read(value, where)
        if not typed:
            raise ConfigError(f"{where} must be nonzero")
        return typed

    return read_nonzero


def _one_of(*options: str) -> Reader:
    def read_option(value: Any, where: str) -> str:
        if value not in options:
            spelled = " or ".join(f'"{option}"' for option in options)
            raise ConfigError(f"{where} must be {spelled}")
        return value

    return read_option


def _raw(value: Any, where: str) -> Any:
    return value


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
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string")
    try:
        return parse_scalar(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _poly(value: Any, where: str) -> Poly:
    try:
        return Poly.from_json(value)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{where}: malformed polynomial: {exc}") from exc


def _module_vector(raw: Any, where: str) -> ModuleVector:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must map monomial strings to scalars")
    try:
        return ModuleVector.from_json(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _cyclic(value: Any, where: str) -> ModuleVector:
    """A vector c.w of the trivial module, written as the scalar c."""
    return ModuleVector.cyclic(_scalar(value, where))


def _omega_spec(config: Any, where: str) -> OmegaSpec:
    spec = _read(
        config, where, {"variant": _raw, "lambda": _scalar},
        {"eta": _scalar, "sigma": _poly, "delta": _poly},
    )
    try:
        return OmegaSpec(
            variant=spec["variant"],
            lam=spec["lambda"],
            eta=spec.get("eta"),
            sigma=spec.get("sigma"),
            delta=spec.get("delta"),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# The keys of a Whittaker datum, read by ``_whittaker``.
_DATUM = {"m": _integer, "n": _integer, "values": _object}
_CENTRALS = {"centrals": _object}


def _whittaker(section: dict, where: str) -> WhittakerDatum:
    """The datum of a section read through ``_DATUM`` and ``_CENTRALS``."""
    values, centrals = section["values"], section.get("centrals", {})
    try:
        given = {parse_gen(key) for key in values}
        for key in centrals:
            g = parse_gen(key)
            if not g.is_central:
                raise ValueError(f"centrals key {key!r} is not c1, c2 or c3")
            if g in given:
                raise ValueError(f"{key} is given in both values and centrals")
        return validate_whittaker(values | centrals, section["m"], section["n"])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# Per restricted-module kind, the keys beside "kind".
_KINDS = {"trivial": ({}, {}), "whittaker": (_DATUM, _CENTRALS)} | {
    kind: ({"inner": _raw}, {}) for kind in _LIFT_KILLS
}


def _restricted(config: Any, where: str) -> RestrictedModule:
    # The lift chain is walked by a loop, so its depth costs no Python
    # frames; lifts are closed, so the module built is one lift deep.
    lifts = []
    while True:
        if not isinstance(config, dict) or "kind" not in config:
            raise ConfigError(f"{where} must be an object with a 'kind'")
        kind = config["kind"]
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ConfigError(f"{where}: unknown restricted-module kind {kind!r}")
        required, optional = _KINDS[kind]
        section = _read(config, where, {"kind": _raw} | required, optional)
        if kind not in _LIFT_KILLS:
            break
        lifts.append(kind)
        config, where = section["inner"], f"{where}.inner"
    if kind == "trivial":
        module: RestrictedModule = TrivialModule()
    else:
        module = WhittakerRestrictedModule(_whittaker(section, where))
    for kind in reversed(lifts):
        module = lift_restricted(kind, module)
    return module


def _tensor_vector(module: RestrictedModule, records: Any, where: str) -> TensorVector:
    # The trivial module is spanned by w: its vectors are scalars c, read
    # as c.w.
    vector = _cyclic if isinstance(module, TrivialModule) else _module_vector
    pairs = _list_of(_section({"poly": _poly, "vector": vector}))(records, where)
    seed = TensorVector.from_pairs((pair["poly"], pair["vector"]) for pair in pairs)
    if not seed:
        raise ConfigError(f"{where} must give a nonzero tensor")
    return seed


# -- campaign runners ----------------------------------------------------------


def _run_verify_algebra(config: dict, rng: random.Random) -> List[dict]:
    bound = _read(config, "config", {"index_bound": _positive_int})["index_bound"]
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


_CLOSURE = _section(
    {"degree_cap": _positive_int},
    {
        # Accepted and checked for older configs; the probe is index-free.
        "index_bound": _positive_int,
        "seeds": _list_of(_nonzero(_poly)),
        "random_seeds": _section(
            {"count": _positive_int, "max_degree": _positive_int},
            {"multiply_by_sigma": _boolean, "zero_constant_term": _boolean},
        ),
        "expect_contains_one": _boolean,
    },
)


def _run_verify_omega(config: dict, rng: random.Random) -> List[dict]:
    read = _read(
        config, "config",
        {"spec": _omega_spec, "index_bound": _positive_int, "basis_cap": _positive_int},
        {"closure": _CLOSURE},
    )
    spec = read["spec"]
    closure = read.get("closure", {})
    seeds: List[Poly] = closure.get("seeds", [])
    drawn = closure.get("random_seeds")
    if drawn is not None:
        by_sigma = drawn.get("multiply_by_sigma", False)
        if by_sigma and spec.sigma is None:
            raise ConfigError(
                "config.closure.random_seeds.multiply_by_sigma needs sigma"
            )
        for _ in range(drawn["count"]):
            seed_poly = random_poly(
                rng, drawn["max_degree"], drawn.get("zero_constant_term", False)
            )
            seeds.append(spec.sigma * seed_poly if by_sigma else seed_poly)
    if closure and not seeds:
        raise ConfigError("config.closure section supplies no seeds")
    report = verify_omega_axioms(spec, read["index_bound"], read["basis_cap"])
    checks = [
        {
            "id": "module-axioms",
            "ok": report.ok,
            "pairs_checked": report.pairs_checked,
            "violations": report.violations,
        }
    ]
    expect = closure.get("expect_contains_one")
    for i, seed_poly in enumerate(seeds):
        probe = submodule_closure_probe(spec, seed_poly, closure["degree_cap"])
        checks.append(
            {
                "id": f"closure-seed-{i}",
                # "false" passes only with an ideal other than (1) that
                # re-checks by omega_act.
                "ok": expect is None or (
                    probe.contains_one if expect else check_proper_ideal(
                        spec, seed_poly, [Poly.from_json(g) for g in probe.ideal]
                    )
                ),
                "seed": seed_poly.to_json(),
                "dimension": probe.dimension,
                "contains_one": probe.contains_one,
                "dimension_by_degree": probe.dimension_by_degree,
            }
        )
    return checks


def _run_whittaker_search(config: dict, rng: random.Random) -> List[dict]:
    read = _read(
        config, "config", _DATUM | {"weight_bound": _positive_int},
        _CENTRALS
        | {"expect_found": _boolean, "expect_witness": _nonzero(_module_vector)},
    )
    report = singular_vector_search(_whittaker(read, "config"), read["weight_bound"])
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
    if "expect_found" in read:
        found = read["expect_found"]
        checks.append(
            {
                "id": "expected-outcome",
                "ok": report.found == found,
                "expected_found": found,
            }
        )
    if "expect_witness" in read:
        expected = read["expect_witness"]
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
    datum = _whittaker(_read(config, "config", _DATUM, _CENTRALS), "config")
    try:
        result = solve_twist(datum)
    except ValueError as exc:
        raise ConfigError(f"twist preconditions: {exc}") from exc
    # Independent recomputation: push every L/H position of the support
    # through the translation again and compare with the solver's datum;
    # positions from m+n on must be cleared.
    recomputed_ok = all(
        result.twisted.psi(g) == datum.psi_element(result.translation.apply(g))
        for g in datum.support()
        if g.family in ("L", "H")
    )
    normalized_ok = not result.twisted.unnormalized()
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
    nonzero = _nonzero(_scalar)
    read = _read(config, "config", {"alpha": nonzero, "beta": nonzero})
    result = example_psi14_witness(read["alpha"], read["beta"])
    det = determinant(result.matrix)
    return [
        {"id": "matrix-singular", "ok": not det, "determinant": str(det)},
        {
            "id": "kernel-dimension",
            "ok": len(result.kernel) >= 1,
            "dimension": len(result.kernel),
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
    read = _read(
        config,
        "config",
        {
            "spec": _omega_spec,
            "restricted": _restricted,
            "seed_pairs": _raw,
            "monomial_bound": _positive_int,
        },
        {
            "expect_reached": _boolean,
            "expect_j_witness": _one_of("locally_finite", "injective_tail"),
        },
    )
    spec, module = read["spec"], read["restricted"]
    seed = _tensor_vector(module, read["seed_pairs"], "config.seed_pairs")
    probe = tensor_closure_probe(spec, module, seed, read["monomial_bound"])
    label = j_nilpotency_witness(spec, module, seed)
    reached = probe.reached_one_tensor
    return [
        {
            "id": "tensor-probe",
            "ok": read.get("expect_reached", reached) == reached
            and read.get("expect_j_witness", label) == label,
            "reached_one_tensor": reached,
            "obstruction": probe.obstruction,
            "j_witness": label,
            "bounds": {"monomial_bound": probe.monomial_bound},
            "monomials_generated": probe.monomials_generated,
            "steps": probe.steps,
        }
    ]


def _case(value: Any, where: str) -> str:
    # Each case name starts with its block; the rest must match the case
    # the vector is in.
    if not isinstance(value, str) or value[:2] not in _BLOCKS:
        raise ConfigError(f"degree check: unknown case {value!r}")
    return value


# The key tables of the two degree-check modes.  The presence of "vector"
# picks explicit mode: one given vector in the case it names.  Sampling
# mode draws random vectors of one block.
_EXPLICIT = (_DATUM | {"vector": _module_vector, "case": _case}, _CENTRALS)
_SAMPLING = (
    _DATUM | {"block": _one_of(*_BLOCKS)},
    _CENTRALS | {"samples": _positive_int, "max_exponent": _positive_int},
)


def _run_degree_check(config: dict, rng: random.Random) -> List[dict]:
    explicit = "vector" in config
    read = _read(config, "config", *(_EXPLICIT if explicit else _SAMPLING))
    datum = _whittaker(read, "config")
    block = read["case"][:2] if explicit else read["block"]
    try:
        vectors = [read["vector"]] if explicit else [
            random_block_vector(rng, datum, block, read.get("max_exponent", 2))
            for _ in range(read.get("samples", 25))
        ]
        reports = [check_degree_reduction(datum, v, block) for v in vectors]
    except ValueError as exc:
        raise ConfigError(f"degree check: {exc}") from exc
    if explicit:
        (report,) = reports
        if report.case != read["case"]:
            raise ConfigError(
                f"degree check: the vector is in case {report.case}, "
                f"not {read['case']!r}"
            )
        return [{"id": "degree-drop", "ok": report.ok} | report.to_json()]
    fields = ("case", "degree_before", "predicted", "branch")
    checks = []
    for k, (vector, report) in enumerate(zip(vectors, reports)):
        summary = report.to_json()
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


# A config nested deeper than this is refused before it is decoded.  The
# decoder's own limit counts the caller's stack frames too, so without this
# whether a config reads would depend on where ``main`` was called from.
MAX_NESTING = 512
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _nesting(text: str) -> int:
    """The deepest nesting of JSON lists and objects, outside strings."""
    depth = deepest = 0
    for bracket in re.findall(r"[][{}]", _STRING.sub("", text)):
        depth += 1 if bracket in "[{" else -1
        deepest = max(deepest, depth)
    return deepest


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="planargca",
        description="Exact verification campaigns for the planar Galilean "
        "conformal algebra and its modules.",
    )
    parser.add_argument("command", choices=_RUNNERS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--json", dest="json_path", help="write the JSON report here")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
        if _nesting(text) > MAX_NESTING:
            raise ConfigError(f"config nests deeper than {MAX_NESTING} levels")
        config = json.loads(text)
    except (OSError, RecursionError, ValueError) as exc:
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
