import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boolops
from boolops.cli import main
from boolops.truthtable import ARITY_CAP


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--output", "structured")
    return code, json.loads(out)


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "x | y")
    assert code == 0
    assert "truth vector: 0111" in out
    assert "function index: f_14" in out
    assert "10 : 1" in out


def test_table_constant(capsys):
    code, out, _ = run(capsys, "table", "T")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "1"
    assert "function index: f_1" in out


def test_poly_command(capsys):
    code, out, _ = run(capsys, "poly", "x ^ y")
    assert code == 0 and out.strip() == "x + y - 2*x*y"


def test_poly_canonical(capsys):
    code, out, _ = run(capsys, "poly", "x ^ y", "--canonical")
    assert code == 0 and out.strip() == "(1-x)*y + x*(1-y)"


def test_poly_majority(capsys):
    code, out, _ = run(capsys, "poly", "maj(x,y,z)")
    assert code == 0 and out.strip() == "x*y + x*z + y*z - 2*x*y*z"


def test_observable_command(capsys):
    code, out, _ = run(capsys, "observable", "x -> y")
    assert code == 0 and out.strip() == "diag(1,1,0,1)"


def test_observable_dense(capsys):
    code, out, _ = run(capsys, "observable", "x & y & z", "--dense")
    rows = out.strip().splitlines()[1:]
    assert code == 0 and len(rows) == 8
    assert rows[7].split() == ["0"] * 7 + ["1"]


def test_observable_constant_with_declared_vars(capsys):
    code, out, _ = run(capsys, "observable", "F", "--vars", "x,y")
    assert code == 0 and out.strip() == "diag(0,0,0,0)"


def test_eval_command(capsys):
    code, out, _ = run(capsys, "eval", "x -> y", "10")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "eval", "maj(x,y,z)", "110")
    assert code == 0 and out.strip() == "1"


def test_eval_above_arity_cap(capsys):
    # Evaluation reads one row; no table is built, so the cap does not apply.
    n = 30
    assert n > ARITY_CAP
    parity = " ^ ".join(f"v{i}" for i in range(n))
    for bits in ("1" * n, "10" * (n // 2), "0" * (n - 1) + "1"):
        code, out, _ = run(capsys, "eval", parity, bits)
        assert code == 0 and out.strip() == str(bits.count("1") % 2)
    code, out, _ = run(capsys, "eval", f"({parity}) -> v0", "0" * n)
    assert code == 0 and out.strip() == "1"


def test_table_function_index_past_4300_digits(capsys):
    # The 16384-bit index of a 14-variable function has 4933 decimal digits.
    limit = sys.get_int_max_str_digits()
    parity = " ^ ".join(f"v{i}" for i in range(14))
    code, out, _ = run(capsys, "table", parity, "--output", "structured")
    assert code == 0
    table = json.loads(out, parse_int=str)
    code, out, _ = run(
        capsys, "index", "--arity", "14", table["function_index"],
        "--output", "structured",
    )
    assert code == 0
    back = json.loads(out, parse_int=str)
    assert back["truth_bits"] == table["truth_bits"]
    assert back["function_index"] == table["function_index"]
    assert len(table["function_index"]) > 4300
    assert sys.get_int_max_str_digits() == limit


def test_import_leaves_numpy_unloaded():
    src = Path(boolops.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, boolops.cli; sys.exit('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert result.returncode == 0


def test_eval_and_expect_constant_formula(capsys):
    code, out, _ = run(capsys, "eval", "T", "")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "expect", "F", "uniform")
    assert code == 0 and out.strip() == "0"


def test_expect_uniform(capsys):
    code, out, _ = run(capsys, "expect", "x ^ y", "uniform")
    assert code == 0 and out.strip() == "0.5"


def test_expect_amplitude_list(capsys):
    code, out, _ = run(capsys, "expect", "x & y", "0,0,0,1")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "expect", "x & y", "0.5,0.5,0.5,0.5j")
    assert code == 0 and out.strip() == "0.25"


def test_index_command(capsys):
    code, out, _ = run(capsys, "index", "0111")
    assert code == 0 and out.strip() == "14"
    code, out, _ = run(capsys, "index", "--arity", "2", "14")
    assert code == 0 and out.strip() == "0111"


def test_verify_command(capsys):
    for arity in ("1", "2", "3"):
        code, out, _ = run(capsys, "verify", "--arity", arity)
        assert code == 0
        assert "FAIL" not in out
        assert "all checks passed" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    from boolops import verify as verify_mod
    from boolops.verify import CheckResult

    monkeypatch.setattr(
        verify_mod,
        "run_suite",
        lambda arity: [
            CheckResult("projector idempotence", True),
            CheckResult("pairwise commutation (dense)", False, "forced"),
        ],
    )
    code, out, _ = run(capsys, "verify", "--arity", "2")
    assert code == 1
    assert "FAIL pairwise commutation (dense) (forced)" in out
    code, payload = run_json(capsys, "verify", "--arity", "2")
    assert code == 1 and not payload["passed"]


def test_stdin_formula(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("x | y"))
    code, out, _ = run(capsys, "poly", "-")
    assert code == 0 and out.strip() == "x + y - x*y"


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "table", "x &")
    assert code == 2 and "parse error" in err


def test_exit_code_domain_errors(capsys):
    code, _, err = run(capsys, "eval", "x", "10")
    assert code == 3 and "error" in err
    code, _, _ = run(capsys, "observable", "a&b&c&d&e&g&h", "--dense")
    assert code == 3
    code, _, _ = run(capsys, "expect", "x & y", "0,0,0,0")
    assert code == 3
    code, _, _ = run(capsys, "table", "q", "--vars", "x,y")
    assert code == 3
    code, _, _ = run(capsys, "verify", "--arity", "9")
    assert code == 3


@pytest.mark.parametrize("amplitudes", ["nan,1", "inf,1", "1,-inf"])
def test_expect_rejects_non_finite_amplitudes(capsys, amplitudes):
    code, out, err = run(capsys, "expect", "x", amplitudes)
    assert code == 3 and out == "" and "finite" in err


def test_arity_cap_flag(capsys):
    code, _, err = run(capsys, "table", "a & b & c", "--arity-cap", "2")
    assert code == 3 and "cap" in err


def test_vars_validation(capsys):
    code, _, _ = run(capsys, "table", "x", "--vars", "x,x")
    assert code == 3
    code, _, _ = run(capsys, "table", "x", "--vars", "x,1bad")
    assert code == 3


# -- structured output mirrors text output -----------------------------------

GOLDEN = [
    ("x | y", "f_14"),
    ("x ^ y", "f_6"),
    ("!x", None),
    ("maj(x, y, z)", None),
    ("x -> y", "f_11"),
]


@pytest.mark.parametrize("formula,_", GOLDEN)
def test_structured_table_matches_text(capsys, formula, _):
    code, payload = run_json(capsys, "table", formula)
    assert code == 0
    _, text, _ = run(capsys, "table", formula)
    assert f"truth vector: {payload['truth_bits']}" in text
    assert f"function index: f_{payload['function_index']}" in text
    assert payload["rows"][0]["bits"] == "0" * payload["arity"]
    assert [r["value"] for r in payload["rows"]] == [
        int(ch) for ch in payload["truth_bits"]
    ]


@pytest.mark.parametrize("formula,_", GOLDEN)
def test_structured_poly_matches_text(capsys, formula, _):
    code, payload = run_json(capsys, "poly", formula)
    assert code == 0
    _, text, _ = run(capsys, "poly", formula)
    assert payload["text"] == text.strip()
    # Rebuild the printed polynomial from the monomial list.
    from boolops.multilinear import MultilinearPoly

    order = payload["variables"]
    poly = MultilinearPoly(
        len(order),
        {
            frozenset(order.index(v) for v in m["variables"]): m["coefficient"]
            for m in payload["monomials"]
        },
    )
    assert poly.format(tuple(order) or None) == text.strip()


@pytest.mark.parametrize("formula,_", GOLDEN)
def test_structured_observable_matches_text(capsys, formula, _):
    code, payload = run_json(capsys, "observable", formula)
    assert code == 0
    _, text, _ = run(capsys, "observable", formula)
    assert "diag(" + ",".join(map(str, payload["diagonal"])) + ")" == text.strip()
    assert [int(ch) for ch in payload["truth_bits"]] == payload["diagonal"]


def test_structured_eval_and_expect_match_text(capsys):
    code, payload = run_json(capsys, "eval", "x -> y", "10")
    assert code == 0 and payload["value"] == 0
    _, text, _ = run(capsys, "eval", "x -> y", "10")
    assert int(text.strip()) == payload["value"]

    code, payload = run_json(capsys, "expect", "x ^ y", "uniform")
    assert code == 0
    _, text, _ = run(capsys, "expect", "x ^ y", "uniform")
    assert float(text.strip()) == pytest.approx(payload["value"], abs=1e-12)


def test_structured_verify(capsys):
    code, payload = run_json(capsys, "verify", "--arity", "1")
    assert code == 0 and payload["passed"]
    assert all(check["passed"] for check in payload["checks"])
