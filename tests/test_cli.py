import json

import pytest

from planargca.cli import ConfigError, main, run_command


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
