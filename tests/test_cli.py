import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planargca
from planargca import cli, whittaker
from planargca.algebra import H
from planargca.cli import ConfigError, main, run_command
from planargca.scalars import sc


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(tmp_path, command, config, seed=0, extra=()):
    config_path = write_config(tmp_path, config)
    json_path = tmp_path / "report.json"
    code = main(
        [command, "--config", config_path, "--json", str(json_path), "--seed", str(seed)]
        + list(extra)
    )
    report = json.loads(json_path.read_text()) if json_path.exists() else None
    return code, report, json_path.read_bytes() if json_path.exists() else b""


def test_verify_algebra_passes(tmp_path):
    code, report, _ = run(tmp_path, "verify-algebra", {"index_bound": 2})
    assert code == 0
    assert report["ok"]
    ids = [check["id"] for check in report["checks"]]
    assert ids == ["bracket-antisymmetry", "jacobi-identity", "bracket-grading"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    code, _, _ = run(tmp_path, "verify-algebra", {"index_bound": 2, "extra": 1})
    assert code == 2
    assert "unknown keys" in capsys.readouterr().err


def test_malformed_scalar_exits_two(tmp_path, capsys):
    code, _, _ = run(
        tmp_path,
        "whittaker-search",
        {"m": 1, "n": 1, "values": {"I[1]": "1/0"}, "weight_bound": 2},
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_two(tmp_path, capsys):
    code = main(["verify-algebra", "--config", str(tmp_path / "absent.json")])
    assert code == 2


def test_whittaker_search_reports_witness(tmp_path):
    code, report, _ = run(
        tmp_path,
        "whittaker-search",
        {
            "m": 1,
            "n": 2,
            "values": {"I[2]": "1", "J[2]": "1"},
            "weight_bound": 3,
            "expect_found": True,
            "expect_witness": {"I[1]": "1", "J[1]": "1"},
        },
    )
    assert code == 0
    assert report["ok"]
    search = next(c for c in report["checks"] if c["id"] == "search")
    assert search["witness"] == {"I[1]": "1", "J[1]": "1"}


@pytest.mark.parametrize(
    "expected, code",
    [
        ({"I[1]": "1", "J[1]": "1"}, 0),
        # A singular vector is a line: any nonzero multiple of the witness
        # names the same one.
        ({"I[1]": "2", "J[1]": "2"}, 0),
        ({"I[1]": "-1/3", "J[1]": "-1/3"}, 0),
        ({"I[1]": "1", "J[1]": "2"}, 1),
        ({"I[1]": "1"}, 1),
        ({"I[1]": "1", "J[1]": "1", "I[1]^2": "1"}, 1),
    ],
)
def test_expect_witness_compares_rays(tmp_path, expected, code):
    config = {"m": 1, "n": 2, "values": {"I[2]": "1", "J[2]": "1"},
              "weight_bound": 3, "expect_witness": expected}
    got, report, _ = run(tmp_path, "whittaker-search", config)
    assert got == code
    check = next(c for c in report["checks"] if c["id"] == "expected-witness")
    assert check["ok"] is (code == 0)
    assert check["expected"] == expected


def test_failed_expectation_exits_one(tmp_path):
    code, report, _ = run(
        tmp_path,
        "whittaker-search",
        {
            "m": 1,
            "n": 1,
            "values": {"I[1]": "1", "J[1]": "1"},
            "weight_bound": 2,
            "expect_found": True,
        },
    )
    assert code == 1
    assert not report["ok"]


def test_twist_command(tmp_path):
    code, report, _ = run(
        tmp_path,
        "twist",
        {
            "m": 1,
            "n": 1,
            "values": {"I[1]": "1", "J[1]": "1", "L[2]": "6"},
        },
    )
    assert code == 0
    solution = next(c for c in report["checks"] if c["id"] == "twist-solution")
    assert solution["a"] == ["1"] and solution["b"] == ["1"]


def test_psi14_command(tmp_path):
    code, report, _ = run(tmp_path, "psi14", {"alpha": "1", "beta": "1"})
    assert code == 0
    singular = next(c for c in report["checks"] if c["id"] == "matrix-singular")
    assert singular["determinant"] == "0"


def test_verify_omega_with_closure(tmp_path):
    config = {
        "spec": {"variant": "sigma_zero", "lambda": "2", "eta": "0",
                 "sigma": [{"xexp": 0, "yexp": 0, "coeff": "1"}]},
        "index_bound": 1,
        "basis_cap": 1,
        "closure": {
            "index_bound": 3,
            "degree_cap": 6,
            "seeds": [[{"xexp": 1, "yexp": 1, "coeff": "1"}]],
            "expect_contains_one": True,
        },
    }
    code, report, _ = run(tmp_path, "verify-omega", config)
    assert code == 0
    assert any(c["id"] == "closure-seed-0" for c in report["checks"])


def test_closure_expect_false_needs_a_certified_proper_ideal(tmp_path, monkeypatch):
    # sigma = X: the seed X (Y^2 + X) generates (X), which passes the
    # re-check by omega_act; X - 1 generates the whole module.  A
    # "false" that the re-check does not confirm fails.
    x_times = [{"xexp": 1, "yexp": 2, "coeff": "1"}, {"xexp": 2, "yexp": 0, "coeff": "1"}]
    x_minus_one = [{"xexp": 0, "yexp": 0, "coeff": "-1"}, {"xexp": 1, "yexp": 0, "coeff": "1"}]
    config = {
        "spec": {"variant": "sigma_zero", "lambda": "2", "eta": "1/3",
                 "sigma": [{"xexp": 1, "yexp": 0, "coeff": "1"}]},
        "index_bound": 1,
        "basis_cap": 1,
        "closure": {
            "degree_cap": 4,
            "seeds": [x_times, x_minus_one],
            "expect_contains_one": False,
        },
    }
    code, report, _ = run(tmp_path, "verify-omega", config)
    checks = {c["id"]: c for c in report["checks"]}
    assert code == 1
    assert checks["closure-seed-0"]["ok"] and not checks["closure-seed-0"]["contains_one"]
    assert not checks["closure-seed-1"]["ok"] and checks["closure-seed-1"]["contains_one"]
    monkeypatch.setattr(cli, "check_proper_ideal", lambda spec, seed, ideal: False)
    config["closure"]["seeds"] = [x_times]
    code, report, _ = run(tmp_path, "verify-omega", config)
    assert code == 1
    assert not report["checks"][1]["ok"]


def test_closure_index_bound_is_optional_and_changes_no_report(tmp_path):
    # The closure probe is index-free: closure.index_bound is still read
    # and checked (0 is refused above), but no report depends on it.
    config_path = Path(__file__).resolve().parent.parent / "configs" / (
        "verify_omega_closure_sigma_x.json"
    )
    config = json.loads(config_path.read_text())
    assert "index_bound" not in config["closure"]
    _, _, without = run(tmp_path, "verify-omega", config, seed=3)
    for index_bound in (1, 4):
        config["closure"]["index_bound"] = index_bound
        code, _, report = run(tmp_path, "verify-omega", config, seed=3)
        assert code == 0
        assert report == without


def test_tensor_probe_command(tmp_path):
    config = {
        "spec": {"variant": "sigma_zero", "lambda": "2", "eta": "0",
                 "sigma": [{"xexp": 0, "yexp": 0, "coeff": "1"}]},
        "restricted": {
            "kind": "whittaker",
            "m": 1,
            "n": 1,
            "values": {"I[1]": "1", "J[1]": "1"},
        },
        "seed_pairs": [
            {"poly": [{"xexp": 2, "yexp": 1, "coeff": "1"}], "vector": {"1": "1"}}
        ],
        "monomial_bound": 2,
        "expect_reached": True,
        "expect_j_witness": "locally_finite",
    }
    code, report, _ = run(tmp_path, "tensor-probe", config)
    assert code == 0
    assert report["ok"]
    check = report["checks"][0]
    assert check["reached_one_tensor"] is True
    assert check["obstruction"] is None
    assert check["j_witness"] == "locally_finite"
    assert check["bounds"] == {"monomial_bound": 2}


def test_degree_check_sampling(tmp_path):
    config = {
        "m": 2,
        "n": 2,
        "values": {"I[3]": "1", "J[3]": "1"},
        "block": "JI",
        "samples": 5,
    }
    code, report, _ = run(tmp_path, "degree-check", config, seed=3)
    assert code == 0
    assert len(report["checks"]) == 5
    assert all(c["ok"] for c in report["checks"])


def test_degree_check_explicit_vector(tmp_path):
    config = {
        "m": 2,
        "n": 2,
        "values": {"I[3]": "1", "J[3]": "1"},
        "vector": {"J[0]": "1"},
        "case": "JI_j_nonzero",
    }
    code, report, _ = run(tmp_path, "degree-check", config)
    assert code == 0
    assert report["checks"][0]["ok"]


@pytest.mark.parametrize(
    "vector, case, message",
    [
        ({"J[0]": "1"}, "JI_i_only", "the vector is in case JI_j_nonzero"),
        ({"I[1]": "1"}, "JI_j_nonzero", "the vector is in case JI_i_only"),
        ({"J[0]": "1"}, "JI_j_only", "not 'JI_j_only'"),
        ({"J[0]": "1"}, "j_nonzero", "unknown case 'j_nonzero'"),
        ({"J[0]": "1"}, 3, "unknown case 3"),
    ],
)
def test_degree_check_refuses_case_not_of_vector(tmp_path, capsys, vector, case, message):
    config = {"m": 2, "n": 2, "values": {"I[3]": "1", "J[3]": "1"},
              "vector": vector, "case": case}
    code, report, _ = run(tmp_path, "degree-check", config)
    assert code == 2
    assert report is None
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "shape, vector, case, after",
    [
        ((2, 2), {"J[0]^500": "1"}, "JI_j_nonzero", [[[0, 499], [0, 0]]]),
        ((1, 1), {"H[0]^500": "1"}, "HL_h_nonzero", [[[499], [0]]]),
    ],
)
def test_degree_check_long_explicit_vector(tmp_path, shape, vector, case, after):
    # A monomial of length 500 is deeper than Python's recursion limit
    # would allow a frame-per-factor action to reach.
    m, n = shape
    top = f"[{m + n - 1}]"
    config = {
        "m": m,
        "n": n,
        "values": {"I" + top: "1", "J" + top: "1"},
        "vector": vector,
        "case": case,
    }
    code, report, _ = run(tmp_path, "degree-check", config)
    assert code == 0
    check = report["checks"][0]
    assert check["ok"]
    assert check["degrees_after"] == after


def test_reports_are_byte_identical(tmp_path):
    config = {
        "m": 2,
        "n": 2,
        "values": {"I[3]": "1", "J[3]": "1"},
        "block": "HL",
        "samples": 4,
    }
    _, _, first = run(tmp_path, "degree-check", config, seed=9)
    _, _, second = run(tmp_path, "degree-check", config, seed=9)
    assert first == second
    _, _, other_seed = run(tmp_path, "degree-check", config, seed=10)
    assert first != other_seed


def test_run_command_rejects_unknown_command():
    with pytest.raises(ConfigError):
        run_command("no-such-command", {})


def test_text_output_lists_checks(tmp_path, capsys):
    config_path = write_config(tmp_path, {"index_bound": 1})
    code = main(["verify-algebra", "--config", config_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS jacobi-identity" in out
    assert out.strip().endswith("OK")


@pytest.mark.parametrize("key, value", [("m", 1.9), ("m", "1"), ("n", True), ("n", 2.0)])
def test_non_integer_shape_rejected(tmp_path, capsys, key, value):
    config = {"m": 1, "n": 1, "values": {"I[1]": "1", "J[1]": "1"}, "weight_bound": 2}
    config[key] = value
    code, _, _ = run(tmp_path, "whittaker-search", config)
    assert code == 2
    assert f"config.{key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_non_boolean_expect_found_rejected(tmp_path, capsys, value):
    config = {
        "m": 1,
        "n": 1,
        "values": {"I[1]": "1", "J[1]": "1"},
        "weight_bound": 2,
        "expect_found": value,
    }
    code, _, _ = run(tmp_path, "whittaker-search", config)
    assert code == 2
    assert "expect_found must be true or false" in capsys.readouterr().err


def test_boolean_expect_found_false_passes(tmp_path):
    config = {
        "m": 1,
        "n": 1,
        "values": {"I[1]": "1", "J[1]": "1"},
        "weight_bound": 2,
        "expect_found": False,
    }
    code, report, _ = run(tmp_path, "whittaker-search", config)
    assert code == 0
    assert report["checks"][-1] == {
        "id": "expected-outcome", "ok": True, "expected_found": False
    }


def test_non_boolean_expect_reached_rejected(tmp_path, capsys):
    config = {
        "spec": {"variant": "sigma_zero", "lambda": "2", "eta": "0",
                 "sigma": [{"xexp": 0, "yexp": 0, "coeff": "1"}]},
        "restricted": {"kind": "trivial"},
        "seed_pairs": [{"poly": [{"xexp": 1, "yexp": 0, "coeff": "1"}], "vector": "1"}],
        "monomial_bound": 2,
        "expect_reached": "true",
    }
    code, _, _ = run(tmp_path, "tensor-probe", config)
    assert code == 2
    assert "expect_reached must be true or false" in capsys.readouterr().err


@pytest.mark.parametrize(
    "random_seeds, expect, message",
    [
        ({"count": 1, "max_degree": 2, "zero_constant_term": "false"}, True,
         "zero_constant_term must be true or false"),
        ({"count": 1, "max_degree": 2, "multiply_by_sigma": 1}, True,
         "multiply_by_sigma must be true or false"),
        ({"count": 1, "max_degree": 2}, "yes",
         "expect_contains_one must be true or false"),
    ],
)
def test_non_boolean_closure_flags_rejected(tmp_path, capsys, random_seeds, expect, message):
    config = {
        "spec": {"variant": "sigma_zero", "lambda": "2", "eta": "0",
                 "sigma": [{"xexp": 0, "yexp": 0, "coeff": "1"}]},
        "index_bound": 1,
        "basis_cap": 1,
        "closure": {
            "index_bound": 1,
            "degree_cap": 2,
            "random_seeds": random_seeds,
            "expect_contains_one": expect,
        },
    }
    code, _, _ = run(tmp_path, "verify-omega", config)
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "record",
    [
        {"xexp": 1.9, "yexp": True, "coeff": "1"},
        {"xexp": 1.0, "yexp": 0, "coeff": "1"},
        {"xexp": 1, "yexp": False, "coeff": "1"},
        {"xexp": "1", "yexp": 0, "coeff": "1"},
        {"xexp": 0, "yexp": None, "coeff": "1"},
    ],
)
def test_non_integer_polynomial_exponent_rejected(tmp_path, capsys, record):
    config = {
        "spec": {"variant": "sigma_zero", "lambda": "2", "eta": "0",
                 "sigma": [record]},
        "index_bound": 1,
        "basis_cap": 1,
    }
    code, report, _ = run(tmp_path, "verify-omega", config)
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert "spec.sigma: malformed polynomial" in err
    assert "must be an integer" in err


def test_non_integer_closure_seed_exponent_rejected(tmp_path, capsys):
    config = {
        "spec": {"variant": "delta_only", "lambda": "2",
                 "delta": [{"xexp": 1, "yexp": 0, "coeff": "1"}]},
        "index_bound": 1,
        "basis_cap": 1,
        "closure": {
            "index_bound": 1,
            "degree_cap": 2,
            "seeds": [[{"xexp": 0, "yexp": 1.5, "coeff": "1"}]],
        },
    }
    code, _, _ = run(tmp_path, "verify-omega", config)
    assert code == 2
    assert "yexp must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("values", [1, 2]), ("values", "ab"), ("centrals", [["c1", "1"]])],
)
def test_non_object_whittaker_values_rejected(tmp_path, capsys, key, value):
    config = {"m": 1, "n": 1, "values": {"I[1]": "1", "J[1]": "1"}, "weight_bound": 2}
    config[key] = value
    code, report, _ = run(tmp_path, "whittaker-search", config)
    assert code == 2
    assert report is None
    assert f"config.{key} must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["locally-finite", "Injective_tail", 1, None, ["locally_finite"]])
def test_unknown_expect_j_witness_rejected(tmp_path, capsys, value):
    config = {
        "spec": {"variant": "sigma_zero", "lambda": "2", "eta": "0",
                 "sigma": [{"xexp": 0, "yexp": 0, "coeff": "1"}]},
        "restricted": {"kind": "trivial"},
        "seed_pairs": [{"poly": [{"xexp": 1, "yexp": 0, "coeff": "1"}], "vector": "1"}],
        "monomial_bound": 2,
        "expect_j_witness": value,
    }
    code, report, _ = run(tmp_path, "tensor-probe", config)
    assert code == 2
    assert report is None
    assert 'expect_j_witness must be "locally_finite" or' in capsys.readouterr().err


@pytest.mark.parametrize(
    "restricted, pairs",
    [
        ({"kind": "trivial"},
         [{"poly": [{"xexp": 0, "yexp": 0, "coeff": "1"}], "vector": "0"}]),
        ({"kind": "trivial"},
         [{"poly": [{"xexp": 1, "yexp": 0, "coeff": "0"}], "vector": "1"}]),
        ({"kind": "whittaker", "m": 1, "n": 1, "values": {"I[1]": "1", "J[1]": "1"}},
         [{"poly": [{"xexp": 0, "yexp": 0, "coeff": "1"}], "vector": {"I[0]": "0"}}]),
    ],
)
def test_zero_tensor_seed_rejected(tmp_path, capsys, restricted, pairs):
    config = {
        "spec": {"variant": "sigma_zero", "lambda": "2", "eta": "0",
                 "sigma": [{"xexp": 0, "yexp": 0, "coeff": "1"}]},
        "restricted": restricted,
        "seed_pairs": pairs,
        "monomial_bound": 2,
    }
    code, report, _ = run(tmp_path, "tensor-probe", config)
    assert code == 2
    assert report is None
    assert "seed_pairs must give a nonzero tensor" in capsys.readouterr().err


@pytest.mark.parametrize(
    "seed", [[{"xexp": 0, "yexp": 0, "coeff": "0"}], []]
)
def test_zero_closure_seed_rejected(tmp_path, capsys, seed):
    config = {
        "spec": {"variant": "delta_only", "lambda": "2",
                 "delta": [{"xexp": 1, "yexp": 0, "coeff": "1"}]},
        "index_bound": 1,
        "basis_cap": 1,
        "closure": {
            "index_bound": 1,
            "degree_cap": 2,
            "seeds": [[{"xexp": 1, "yexp": 0, "coeff": "1"}], seed],
        },
    }
    code, report, _ = run(tmp_path, "verify-omega", config)
    assert code == 2
    assert report is None
    assert "closure.seeds[1] must be nonzero" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values",
    [
        {"I[1]": "0", " I[1]": "5", "J[1]": "1"},
        {"I[1]": "5", " I[1]": "0", "J[1]": "1"},
    ],
)
def test_whittaker_duplicate_value_with_zero_copy_rejected(tmp_path, capsys, values):
    config = {"m": 1, "n": 1, "values": values, "weight_bound": 2}
    code, report, _ = run(tmp_path, "whittaker-search", config)
    assert code == 2
    assert report is None
    assert "duplicate value for I[1]" in capsys.readouterr().err


def test_whittaker_search_lists_generating_set(tmp_path):
    config = {"m": 2, "n": 2, "values": {"I[3]": "1", "J[3]": "1"}, "weight_bound": 2}
    code, report, _ = run(tmp_path, "whittaker-search", config)
    assert code == 0
    assert [check["id"] for check in report["checks"]] == ["search"]
    assert report["checks"][0]["generating_set"] == [
        "L[2]", "L[3]", "L[4]", "H[2]", "H[3]", "I[2]", "I[3]", "J[2]", "J[3]"
    ]


@pytest.mark.parametrize(
    "values, centrals, message",
    [
        ({"I[1]": "1", "J[1]": "1"}, {"I[1]": "5"},
         "centrals key 'I[1]' is not c1, c2 or c3"),
        ({"I[1]": "1"}, {"J[1]": "1"}, "centrals key 'J[1]' is not c1, c2 or c3"),
        ({"I[1]": "1", "J[1]": "1", "c1": "2"}, {"c1": "5"},
         "c1 is given in both values and centrals"),
        ({"I[1]": "1", "J[1]": "1", "c2": "1"}, {"c2": "1"},
         "c2 is given in both values and centrals"),
    ],
)
def test_whittaker_centrals_must_be_central_and_unique(
    tmp_path, capsys, values, centrals, message
):
    config = {"m": 1, "n": 1, "values": values, "centrals": centrals, "weight_bound": 2}
    code, report, _ = run(tmp_path, "whittaker-search", config)
    assert code == 2
    assert report is None
    assert message in capsys.readouterr().err


def test_restricted_whittaker_centrals_must_be_central(tmp_path, capsys):
    config = {
        "spec": {"variant": "sigma_zero", "lambda": "2", "eta": "0",
                 "sigma": [{"xexp": 0, "yexp": 0, "coeff": "1"}]},
        "restricted": {"kind": "whittaker", "m": 1, "n": 1,
                       "values": {"I[1]": "1", "J[1]": "1"},
                       "centrals": {"J[1]": "2"}},
        "seed_pairs": [{"poly": [{"xexp": 1, "yexp": 0, "coeff": "1"}], "vector": {"1": "1"}}],
        "monomial_bound": 2,
    }
    code, report, _ = run(tmp_path, "tensor-probe", config)
    assert code == 2
    assert report is None
    assert "centrals key 'J[1]' is not c1, c2 or c3" in capsys.readouterr().err


SIGMA_ONE_SPEC = {"variant": "sigma_zero", "lambda": "2", "eta": "0",
                  "sigma": [{"xexp": 0, "yexp": 0, "coeff": "1"}]}


@pytest.mark.parametrize(
    "restricted",
    [
        {"kind": "virasoro_style", "inner": {"kind": "trivial"}},
        {"kind": "heisenberg_virasoro_style",
         "inner": {"kind": "virasoro_style", "inner": {"kind": "trivial"}}},
    ],
)
def test_lifted_trivial_module_reads_scalar_vectors(tmp_path, restricted):
    config = {
        "spec": SIGMA_ONE_SPEC,
        "restricted": restricted,
        "seed_pairs": [
            {"poly": [{"xexp": 1, "yexp": 1, "coeff": "1"}], "vector": "1"},
            {"poly": [{"xexp": 0, "yexp": 1, "coeff": "1"}], "vector": "-2/3"},
        ],
        "monomial_bound": 2,
    }
    code, report, _ = run(tmp_path, "tensor-probe", config)
    assert code == 0
    assert report["checks"][0]["reached_one_tensor"] is True


def test_lifted_trivial_module_refuses_monomial_vectors(tmp_path, capsys):
    config = {
        "spec": SIGMA_ONE_SPEC,
        "restricted": {"kind": "virasoro_style", "inner": {"kind": "trivial"}},
        "seed_pairs": [{"poly": [{"xexp": 1, "yexp": 0, "coeff": "1"}],
                        "vector": {"1": "1"}}],
        "monomial_bound": 2,
    }
    code, report, _ = run(tmp_path, "tensor-probe", config)
    assert code == 2
    assert report is None
    assert "seed_pairs[0].vector" in capsys.readouterr().err


TWO_SPELLINGS = [{"I[1]": "1", " I[1]": "2"}, {"I[1]": "1", "I[01]": "2"}]


@pytest.mark.parametrize("vector", TWO_SPELLINGS)
def test_duplicate_monomial_in_expect_witness_rejected(tmp_path, capsys, vector):
    config = {"m": 1, "n": 2, "values": {"I[2]": "1", "J[2]": "1"},
              "weight_bound": 3, "expect_witness": vector}
    code, report, _ = run(tmp_path, "whittaker-search", config)
    assert code == 2
    assert report is None
    assert "expect_witness: duplicate coefficient for monomial I[1]" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("vector", TWO_SPELLINGS)
def test_duplicate_monomial_in_degree_check_vector_rejected(tmp_path, capsys, vector):
    config = {"m": 2, "n": 2, "values": {"I[3]": "1", "J[3]": "1"},
              "vector": vector, "case": "JI_i_only"}
    code, report, _ = run(tmp_path, "degree-check", config)
    assert code == 2
    assert report is None
    assert "vector: duplicate coefficient for monomial I[1]" in capsys.readouterr().err


@pytest.mark.parametrize("vector", TWO_SPELLINGS)
def test_duplicate_monomial_in_tensor_seed_rejected(tmp_path, capsys, vector):
    config = {
        "spec": SIGMA_ONE_SPEC,
        "restricted": {"kind": "whittaker", "m": 1, "n": 1,
                       "values": {"I[1]": "1", "J[1]": "1"}},
        "seed_pairs": [{"poly": [{"xexp": 1, "yexp": 0, "coeff": "1"}],
                        "vector": vector}],
        "monomial_bound": 2,
    }
    code, report, _ = run(tmp_path, "tensor-probe", config)
    assert code == 2
    assert report is None
    assert "seed_pairs[0].vector: duplicate coefficient for monomial I[1]" in (
        capsys.readouterr().err
    )


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("the campaign ran before its config was validated")


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"expect_found": "yes"}, "expect_found must be true or false"),
        ({"expect_witness": ["I[1]"]}, "expect_witness must map monomial strings"),
        ({"expect_witness": {"I[1]": "1/0"}}, "expect_witness: zero denominator"),
        ({"expect_witness": TWO_SPELLINGS[1]}, "duplicate coefficient for monomial"),
        ({"expect_witness": {}}, "expect_witness must be nonzero"),
        ({"expect_witness": {"I[1]": "0"}}, "expect_witness must be nonzero"),
    ],
)
def test_search_expectations_validated_before_search(
    tmp_path, capsys, monkeypatch, extra, message
):
    monkeypatch.setattr(cli, "singular_vector_search", _refuse_to_run)
    config = {"m": 1, "n": 1, "values": {"I[1]": "1", "J[1]": "1"},
              "weight_bound": 2} | extra
    code, report, _ = run(tmp_path, "whittaker-search", config)
    assert code == 2
    assert report is None
    assert message in capsys.readouterr().err


CLOSURE_OK = {"index_bound": 1, "degree_cap": 2,
              "seeds": [[{"xexp": 1, "yexp": 0, "coeff": "1"}]]}


@pytest.mark.parametrize(
    "closure, message",
    [
        (CLOSURE_OK | {"junk": 1}, "closure: unknown keys ['junk']"),
        (CLOSURE_OK | {"index_bound": 0}, "closure.index_bound must be a positive"),
        (CLOSURE_OK | {"degree_cap": 2.5}, "closure.degree_cap must be an integer"),
        (CLOSURE_OK | {"seeds": [[{"xexp": 0, "yexp": 0, "coeff": "0"}]]},
         "closure.seeds[0] must be nonzero"),
        (CLOSURE_OK | {"seeds": []}, "closure section supplies no seeds"),
        (CLOSURE_OK | {"random_seeds": {"count": 1}},
         "closure.random_seeds: missing keys ['max_degree']"),
        (CLOSURE_OK | {"expect_contains_one": "true"},
         "closure.expect_contains_one must be true or false"),
        ({"index_bound": 1}, "closure: missing keys ['degree_cap']"),
    ],
)
def test_closure_section_validated_before_axiom_sweep(
    tmp_path, capsys, monkeypatch, closure, message
):
    monkeypatch.setattr(cli, "verify_omega_axioms", _refuse_to_run)
    config = {"spec": SIGMA_ONE_SPEC, "index_bound": 1, "basis_cap": 1,
              "closure": closure}
    code, report, _ = run(tmp_path, "verify-omega", config)
    assert code == 2
    assert report is None
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("where", ["sigma", "closure"])
def test_polynomial_record_with_unknown_key_rejected(tmp_path, capsys, where):
    record = {"xexp": 1, "yexp": 0, "coeff": "1", "junk": 5}
    config = {"spec": SIGMA_ONE_SPEC, "index_bound": 1, "basis_cap": 1}
    if where == "sigma":
        config["spec"] = SIGMA_ONE_SPEC | {"sigma": [record]}
    else:
        config["closure"] = CLOSURE_OK | {"seeds": [[record]]}
    code, report, _ = run(tmp_path, "verify-omega", config)
    assert code == 2
    assert report is None
    assert "malformed polynomial: unknown keys ['junk']" in capsys.readouterr().err


TWIST_21 = {"m": 2, "n": 1,
            "values": {"I[2]": "1", "J[2]": "2", "L[3]": "1", "L[4]": "3", "H[3]": "5"}}


def _twist_with_h_shifted(position):
    solve = whittaker.solve_twist

    def patched(datum):
        result = solve(datum)
        values = dict(result.twisted.values)
        values[H(position)] = values.get(H(position), sc(0)) + sc(1)
        twisted = whittaker.validate_whittaker(values, datum.m, datum.n)
        return dataclasses.replace(result, twisted=twisted)

    return patched


@pytest.mark.parametrize(
    "position, recomputed, normalized",
    [(None, True, True), (2, False, True), (3, False, False)],
)
def test_twist_checks_cover_h_positions(
    tmp_path, monkeypatch, position, recomputed, normalized
):
    # (m, n) = (2, 1): H[2] is free after the twist and H[3] must vanish.
    if position is not None:
        monkeypatch.setattr(cli, "solve_twist", _twist_with_h_shifted(position))
    code, report, _ = run(tmp_path, "twist", TWIST_21)
    checks = {check["id"]: check["ok"] for check in report["checks"]}
    assert checks["twist-recomputation"] is recomputed
    assert checks["twist-normalization"] is normalized
    assert code == (0 if recomputed and normalized else 1)


# One bad value in the last key that each command's table reads, and the
# work function that must not run.
LAST_KEY_REFUSALS = [
    ("verify-algebra", "verify_structure", {"index_bound": 0},
     "config.index_bound must be a positive integer"),
    ("verify-omega", "verify_omega_axioms",
     {"spec": SIGMA_ONE_SPEC, "index_bound": 1, "basis_cap": 1,
      "closure": CLOSURE_OK | {"expect_contains_one": "yes"}},
     "config.closure.expect_contains_one must be true or false"),
    ("whittaker-search", "singular_vector_search",
     {"m": 1, "n": 1, "values": {"I[1]": "1", "J[1]": "1"}, "weight_bound": 2,
      "expect_witness": {"I[1]": "0"}},
     "config.expect_witness must be nonzero"),
    ("twist", "solve_twist", TWIST_21 | {"centrals": ["c1"]},
     "config.centrals must be a JSON object"),
    ("psi14", "example_psi14_witness", {"alpha": "1", "beta": "0"},
     "config.beta must be nonzero"),
    ("tensor-probe", "tensor_closure_probe",
     {"spec": SIGMA_ONE_SPEC, "restricted": {"kind": "trivial"},
      "seed_pairs": [{"poly": [{"xexp": 1, "yexp": 0, "coeff": "1"}], "vector": "1"}],
      "monomial_bound": 2, "expect_j_witness": "neither"},
     'config.expect_j_witness must be "locally_finite" or "injective_tail"'),
    ("degree-check", "check_degree_reduction",
     {"m": 2, "n": 2, "values": {"I[3]": "1", "J[3]": "1"}, "block": "JI",
      "samples": 2, "max_exponent": 0},
     "config.max_exponent must be a positive integer"),
    ("degree-check", "check_degree_reduction",
     {"m": 2, "n": 2, "values": {"I[3]": "1", "J[3]": "1"}, "vector": {"J[0]": "1"},
      "case": "JI_j_nonzero", "centrals": "c1"},
     "config.centrals must be a JSON object"),
]


@pytest.mark.parametrize("command, work, config, message", LAST_KEY_REFUSALS)
def test_every_command_reads_its_whole_config_before_work(
    tmp_path, capsys, monkeypatch, command, work, config, message
):
    monkeypatch.setattr(cli, work, _refuse_to_run)
    code, report, _ = run(tmp_path, command, config)
    assert code == 2
    assert report is None
    assert message in capsys.readouterr().err


DEGREE_22 = {"m": 2, "n": 2, "values": {"I[3]": "1", "J[3]": "1"}}


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"vector": {"J[0]": "1"}, "case": "JI_j_nonzero", "block": "HL"}, "block"),
        ({"vector": {"J[0]": "1"}, "case": "JI_j_nonzero", "samples": "abc"}, "samples"),
        ({"vector": {"J[0]": "1"}, "case": "JI_j_nonzero", "max_exponent": -3},
         "max_exponent"),
        ({"block": "JI", "samples": 2, "case": "JI_i_only"}, "case"),
    ],
)
def test_degree_check_refuses_the_other_modes_keys(tmp_path, capsys, extra, key):
    code, report, _ = run(tmp_path, "degree-check", DEGREE_22 | extra)
    assert code == 2
    assert report is None
    assert f"config: unknown keys ['{key}']" in capsys.readouterr().err


def test_degree_check_on_an_empty_block_is_a_config_error(tmp_path, capsys):
    # n = 0 leaves the J/I block without generators.
    config = {"m": 2, "n": 0, "values": {"I[1]": "1", "J[1]": "1"}, "block": "JI"}
    code, report, _ = run(tmp_path, "degree-check", config)
    assert code == 2
    assert report is None
    assert "degree check: block is empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "closure, message",
    [
        (CLOSURE_OK | {"seeds": 5}, "config.closure.seeds must be a JSON list"),
        (CLOSURE_OK | {"seeds": None}, "config.closure.seeds must be a JSON list"),
        (CLOSURE_OK | {"seeds": True}, "config.closure.seeds must be a JSON list"),
        (None, "config.closure must be a JSON object"),
        (CLOSURE_OK | {"random_seeds": None},
         "config.closure.random_seeds must be a JSON object"),
        (CLOSURE_OK | {"expect_contains_one": None},
         "config.closure.expect_contains_one must be true or false"),
    ],
)
def test_closure_values_are_typed(tmp_path, capsys, closure, message):
    config = {"spec": SIGMA_ONE_SPEC, "index_bound": 1, "basis_cap": 1,
              "closure": closure}
    code, report, _ = run(tmp_path, "verify-omega", config)
    assert code == 2
    assert report is None
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "where, message",
    [
        ("sigma", "config.spec.sigma: malformed polynomial: duplicate record"),
        ("closure", "config.closure.seeds[0]: malformed polynomial: duplicate record"),
    ],
)
def test_polynomial_with_a_monomial_given_twice_rejected(tmp_path, capsys, where, message):
    # Summed, the two records would read as the zero polynomial.
    records = [{"xexp": 0, "yexp": 0, "coeff": "1"}, {"xexp": 0, "yexp": 0, "coeff": "-1"}]
    config = {"spec": SIGMA_ONE_SPEC, "index_bound": 1, "basis_cap": 1}
    if where == "sigma":
        config["spec"] = SIGMA_ONE_SPEC | {"sigma": records}
    else:
        config["closure"] = CLOSURE_OK | {"seeds": [records]}
    code, report, _ = run(tmp_path, "verify-omega", config)
    assert code == 2
    assert report is None
    assert f"{message} for xexp 0, yexp 0" in capsys.readouterr().err


def _lift_chain(depth, innermost):
    kinds = ("virasoro_style", "heisenberg_virasoro_style")
    restricted = innermost
    for level in range(depth):
        restricted = {"kind": kinds[level % 2], "inner": restricted}
    return restricted


def _chain_json(depth):
    """A tensor-probe config with a lift chain of the given depth, as text."""
    return (
        '{"spec": ' + json.dumps(SIGMA_ONE_SPEC) + ', "restricted": '
        + '{"kind": "virasoro_style", "inner": ' * depth + '{"kind": "trivial"}'
        + "}" * depth + ', "seed_pairs": [{"poly": [{"xexp": 1, "yexp": 0, '
        '"coeff": "1"}], "vector": "1"}], "monomial_bound": 2}'
    )


@pytest.mark.parametrize(
    "text", ["[" * 100_000, _chain_json(990)], ids=["nested-lists", "lift-chain-990"]
)
def test_too_deeply_nested_config_is_a_config_error(tmp_path, capsys, text):
    # Past the JSON decoder's nesting limit: exit 2, not a traceback.  The
    # decoder's limit counts the caller's frames too, so a 990-deep chain
    # is past it from inside a test.
    path = tmp_path / "deep.json"
    path.write_text(text)
    json_path = tmp_path / "report.json"
    code = main(["tensor-probe", "--config", str(path), "--json", str(json_path)])
    assert code == 2
    assert not json_path.exists()
    assert capsys.readouterr().err.startswith("config error: ")


WHITTAKER_11 = {"kind": "whittaker", "m": 1, "n": 1,
                "values": {"I[1]": "1", "J[1]": "1"}}


@pytest.mark.parametrize(
    "innermost, vector, single",
    [
        ({"kind": "trivial"}, "1", {"kind": "trivial"}),
        (WHITTAKER_11, {"1": "1"}, {"kind": "virasoro_style", "inner": WHITTAKER_11}),
    ],
)
def test_deep_lift_chain_reads_without_recursion(innermost, vector, single):
    # Deeper than the recursion limit: the chain is walked by a loop, and
    # the lifts close up into one, which kills the union of both kill sets.
    base = {"spec": SIGMA_ONE_SPEC,
            "seed_pairs": [{"poly": [{"xexp": 1, "yexp": 1, "coeff": "1"}],
                            "vector": vector}],
            "monomial_bound": 2}
    deep = run_command("tensor-probe", base | {"restricted": _lift_chain(5000, innermost)})
    assert deep == run_command("tensor-probe", base | {"restricted": single})
    assert deep["ok"] and deep["checks"][0]["reached_one_tensor"]


def _trivial_probe(vector):
    return {"spec": SIGMA_ONE_SPEC, "restricted": {"kind": "trivial"},
            "seed_pairs": [{"poly": [{"xexp": 1, "yexp": 0, "coeff": "1"}],
                            "vector": vector}],
            "monomial_bound": 2}


# Each place a config gives a scalar, with the value replaced, and the key
# the message names.
SCALAR_SLOTS = {
    "psi14": lambda v: ("psi14", {"alpha": v, "beta": "1"}, "config.alpha"),
    "lambda": lambda v: ("verify-omega", {
        "spec": SIGMA_ONE_SPEC | {"lambda": v}, "index_bound": 1, "basis_cap": 1,
    }, "config.spec.lambda"),
    "poly-coeff": lambda v: ("verify-omega", {
        "spec": SIGMA_ONE_SPEC | {"sigma": [{"xexp": 0, "yexp": 0, "coeff": v}]},
        "index_bound": 1, "basis_cap": 1,
    }, "config.spec.sigma: malformed polynomial: coeff"),
    "psi-value": lambda v: ("whittaker-search", {
        "m": 1, "n": 1, "values": {"I[1]": v, "J[1]": "1"}, "weight_bound": 2,
    }, "config: the value of I[1]"),
    "central": lambda v: ("whittaker-search", {
        "m": 1, "n": 1, "values": {"I[1]": "1", "J[1]": "1"}, "centrals": {"c2": v},
        "weight_bound": 2,
    }, "config: the value of c2"),
    "vector-coeff": lambda v: ("whittaker-search", {
        "m": 1, "n": 1, "values": {"I[1]": "1", "J[1]": "1"}, "weight_bound": 2,
        "expect_witness": {"I[1]": v},
    }, "config.expect_witness: the coefficient of I[1]"),
    "trivial-vector": lambda v: (
        "tensor-probe", _trivial_probe(v), "config.seed_pairs[0].vector",
    ),
}


@pytest.mark.parametrize("slot", SCALAR_SLOTS)
@pytest.mark.parametrize("value", [1, 2.5, None, True, ["1"]], ids=repr)
def test_scalars_are_strings_not_coerced(tmp_path, capsys, slot, value):
    # A JSON number is not read as its decimal spelling, and null, true
    # and lists are refused by type, not by a message quoting a Python repr.
    command, config, key = SCALAR_SLOTS[slot](value)
    code, report, _ = run(tmp_path, command, config)
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert err == f"config error: {key} must be a string\n"


@pytest.mark.parametrize("slot", SCALAR_SLOTS)
def test_scalar_slots_read_their_strings(tmp_path, slot):
    # The same configs with the value "1" run, so the refusal above is the
    # type check and not some other fault of the config.
    command, config, _ = SCALAR_SLOTS[slot]("1")
    code, report, _ = run(tmp_path, command, config)
    assert report is not None and code in (0, 1)


def _run_chain(tmp_path, depth):
    path = tmp_path / "chain.json"
    path.write_text(_chain_json(depth))
    return main(["tensor-probe", "--config", str(path)])


NESTING_REFUSED = f"config error: config nests deeper than {cli.MAX_NESTING} levels\n"


def test_nesting_limit_is_fixed_in_a_fresh_process(tmp_path):
    # Far below the decoder's own limit in a fresh process, yet refused:
    # the limit is a property of the config, not of the caller's stack.
    path = tmp_path / "chain.json"
    path.write_text(_chain_json(600))
    env = dict(os.environ, PYTHONPATH=str(Path(planargca.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "planargca.cli", "tensor-probe", "--config", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr == NESTING_REFUSED


def test_nesting_limit_is_fixed_under_pytest(tmp_path, capsys):
    assert _run_chain(tmp_path, 600) == 2
    assert capsys.readouterr().err == NESTING_REFUSED


def test_config_within_the_nesting_limit_runs(tmp_path):
    assert _run_chain(tmp_path, 400) == 0


def test_nesting_ignores_brackets_inside_strings():
    assert cli._nesting('{"a": "[[{{\\"[", "b": [1, {"c": []}]}') == 4


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"index_bound": 2, "note": "\xff"}')
    assert main(["verify-algebra", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: 'utf-8' codec")


# The error paths below are the CLI's own refusals; each exits 2 with a
# "config error" line naming where the config went wrong.

_SIGMA_ONE = [{"xexp": 0, "yexp": 0, "coeff": "1"}]
_OMEGA = {"variant": "sigma_zero", "lambda": "2", "eta": "0", "sigma": _SIGMA_ONE}
_DELTA = {"variant": "delta_only", "lambda": "2", "delta": _SIGMA_ONE}


@pytest.mark.parametrize(
    "spec, message",
    [
        (_OMEGA | {"lambda": "0"}, "config.spec: lam must be nonzero"),
        (
            _DELTA | {"sigma": _SIGMA_ONE},
            "config.spec: delta_only takes delta and nothing else",
        ),
        (
            _OMEGA | {"lambda": "1/0"},
            "config.spec.lambda: zero denominator in scalar '1/0'",
        ),
        (_OMEGA | {"eta": "1//2"}, "config.spec.eta: malformed scalar '1//2'"),
    ],
)
def test_invalid_omega_spec_exits_two(tmp_path, capsys, spec, message):
    config = {"spec": spec, "index_bound": 1, "basis_cap": 1}
    code, report, _ = run(tmp_path, "verify-omega", config)
    assert code == 2 and report is None
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "restricted, message",
    [
        ({"m": 1, "n": 1}, "config.restricted must be an object with a 'kind'"),
        ([], "config.restricted must be an object with a 'kind'"),
        (
            {"kind": "verma"},
            "config.restricted: unknown restricted-module kind 'verma'",
        ),
        ({"kind": 1}, "config.restricted: unknown restricted-module kind 1"),
        (
            {"kind": "virasoro_style", "inner": {"kind": None}},
            "config.restricted.inner: unknown restricted-module kind None",
        ),
    ],
)
def test_restricted_module_without_known_kind_exits_two(
    tmp_path, capsys, restricted, message
):
    config = {
        "spec": _OMEGA,
        "restricted": restricted,
        "seed_pairs": [{"poly": _SIGMA_ONE, "vector": "1"}],
        "monomial_bound": 1,
    }
    code, _, _ = run(tmp_path, "tensor-probe", config)
    assert code == 2
    assert message in capsys.readouterr().err


def test_multiply_by_sigma_on_delta_only_exits_two(tmp_path, capsys):
    config = {
        "spec": _DELTA,
        "index_bound": 1,
        "basis_cap": 1,
        "closure": {
            "index_bound": 1,
            "degree_cap": 2,
            "random_seeds": {"count": 1, "max_degree": 1, "multiply_by_sigma": True},
        },
    }
    code, _, _ = run(tmp_path, "verify-omega", config)
    assert code == 2
    assert (
        "config.closure.random_seeds.multiply_by_sigma needs sigma"
        in capsys.readouterr().err
    )


def test_twist_with_m_below_n_exits_two(tmp_path, capsys):
    config = {"m": 1, "n": 2, "values": {"I[2]": "1", "J[2]": "1"}}
    code, _, _ = run(tmp_path, "twist", config)
    assert code == 2
    assert (
        "config error: twist preconditions: twist normalization requires m >= n"
        in capsys.readouterr().err
    )


@pytest.mark.parametrize("config", [[], "{}", None, 1])
def test_run_command_rejects_a_config_that_is_no_object(config):
    with pytest.raises(ConfigError, match="config must be a JSON object"):
        run_command("verify-algebra", config)


def test_verbose_output_adds_one_detail_line_per_check(tmp_path, capsys):
    config_path = write_config(tmp_path, {"index_bound": 1})
    json_path = tmp_path / "report.json"
    code = main(
        ["verify-algebra", "--config", config_path, "--json", str(json_path), "--verbose"]
    )
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(json_path.read_text())
    assert code == 0
    assert lines[-1] == "OK"
    assert len(lines) == 2 * len(report["checks"]) + 1
    for check, status, detail in zip(report["checks"], lines[0:-1:2], lines[1:-1:2]):
        assert status == f"PASS {check['id']}"
        details = {k: v for k, v in check.items() if k not in ("id", "ok")}
        assert json.loads(detail) == details
