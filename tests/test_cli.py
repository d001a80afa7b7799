import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boolops
from boolops.cli import main
from boolops.errors import InvariantViolation
from boolops.formula import format_formula
from boolops.truthtable import ARITY_CAP
from conftest import formulas
from golden import cli_digests


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


@pytest.mark.parametrize(
    "text, value",
    [
        ("(" * 100 + "x" + ")" * 100, "1"),
        ("!" * 1000 + "x", "1"),
        ("x" + " nand x" * 799, "0"),
        ("(" * 90 + "x" + ")" * 90, "1"),
        ("!" * 900 + "x", "1"),
        ("x" + " nand x" * 399, "0"),
    ],
    ids=["parens-100", "not-1000", "nand-800", "parens-90", "not-900", "nand-400"],
)
def test_deep_nesting_exits_without_traceback(text, value):
    # A fresh process: the command line as a user runs it.
    src = Path(boolops.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "boolops.cli", "eval", text, "1"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stdout) == (0, value + "\n")


def test_deep_formula_read_from_stdin():
    # One argv string is capped at 128 KiB on Linux; "-" reads the formula
    # from stdin instead.  x = 1 stays 1 under 10**5 negations and under
    # an even number of "nand x" steps (1 nand 1 = 0, 0 nand 1 = 1).
    n = 10**5
    text = "(" * n + "!" * n + "x" + ")" * n + " nand x" * n
    src = Path(boolops.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "boolops.cli", "eval", "-", "1"],
        input=text,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", "")


def test_non_ascii_letter_is_a_parse_error():
    src = Path(boolops.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "boolops.cli", "eval", "é", "1"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, encoding="utf-8", timeout=60,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.splitlines()[0] == (
        "parse error: unknown operator or character 'é' (column 1)"
    )
    assert "Traceback" not in result.stderr


def test_closed_stdout_exits_141_quietly():
    # 2**14 rows, far more than a pipe holds: the writer is still writing
    # when the reader closes its end after the first line.
    text = " ^ ".join(f"v{i}" for i in range(14))
    src = Path(boolops.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "boolops.cli", "table", text],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"v0 v1 ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_import_leaves_numpy_unloaded():
    # The modules a fresh `import boolops.cli` adds: only the commands that
    # use dataclasses, fractions, json or the verify suite load them, and
    # nothing in the package imports numpy, a test-only dependency.
    src = Path(boolops.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import boolops.cli; "
         "print(' '.join(sorted(set(sys.modules) - before)))"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, encoding="utf-8", timeout=60,
    )
    assert result.returncode == 0, result.stderr
    added = set(result.stdout.split())
    assert "numpy" not in added
    assert not added & {"dataclasses", "fractions", "json", "boolops.verify"}
    assert {"boolops.multilinear", "boolops.operators", "boolops.states"} <= added


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


def test_invariant_violation_exits_1_without_traceback(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolation("forced disagreement")

    monkeypatch.setattr("boolops.cli.truth_vector", broken)
    for output in ("text", "structured"):
        code, out, err = run(capsys, "table", "x | y", "--output", output)
        assert code == 1 and out == ""
        assert err == "error: forced disagreement\n"


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


def test_arity_cap_flag_limits_index_arity(capsys):
    code, out, err = run(capsys, "index", "--arity", "20", "5", "--arity-cap", "2")
    assert (code, out, err) == (3, "", "error: arity 20 exceeds the cap of 2\n")
    # The flag lowers the cap; TruthVector.from_index keeps ARITY_CAP above it.
    code, out, err = run(capsys, "index", "--arity", "25", "5", "--arity-cap", "30")
    assert (code, out) == (3, "") and f"cap of {ARITY_CAP}" in err
    code, out, _ = run(capsys, "index", "--arity", "3", "5", "--arity-cap", "3")
    assert (code, out) == (0, "10100000\n")


def test_output_matches_the_recorded_digests():
    # Every command in both output modes, arity 0-14, and the error paths:
    # stdout, stderr and exit code must equal tests/golden/cli_digests.txt.
    lines = cli_digests.read_digests()
    assert [json.loads(line.split("\t", 1)[0]) for line in lines] == (
        cli_digests.invocations()
    ), "the digest file is stale: rerun tests/golden/cli_digests.py"
    found = cli_digests.mismatches(lines)
    assert not found, f"{len(found)} invocations changed:\n" + "\n".join(found[:5])


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


# -- any formula text ends in a documented exit code -----------------------

#: Variables, constants, every operator spelling, parentheses and spaces.
PIECES = (
    "x", "y", "z", "0", "1", "F", "T", "t", "f",
    "!", "&", "|", "^", "nand", "NOR", "->", "<-", "!->", "!<-", "<->", "maj",
    "¬", "∧", "∨", "⊕", "⇒", "⇐", "≡", "(", ")", ",", " ", "  ",
    "é", "ß", "Ж", "²", "٣",  # letters and digits outside ASCII
)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from(PIECES), max_size=14).map("".join),
        formulas(max_leaves=6).map(format_formula),  # mostly well formed
    ),
    st.text("01", max_size=4),
)
def test_any_formula_text_exits_0_2_or_3(text, bits):
    commands = (
        (["table"], []), (["poly"], []), (["poly", "--canonical"], []),
        (["observable"], []), (["eval"], [bits]), (["expect"], ["uniform"]),
    )
    for command, tail in commands:
        for output in ("text", "structured"):
            # "--" keeps text such as "->x" from reading as an option.
            argv = [*command, "--output", output, "--", text, *tail]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3), (argv, err.getvalue())
            if code:
                assert out.getvalue() == ""
            elif output == "structured":
                lines = out.getvalue().split("\n")
                assert len(lines) == 2 and lines[1] == ""
                assert json.loads(lines[0])["command"] == command[0]
