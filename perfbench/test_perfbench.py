"""Tests of the benchmark's own code: generator, oracle, tracer, contract.

    python3 -m pytest perfbench
"""

import io
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import generate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from generate import app, var  # noqa: E402


def run_cli(argv, stdin=None):
    import boolops.cli

    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = boolops.cli.main(list(argv))
    finally:
        sys.stdin = old_stdin
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    first = generate.round_specs(workload, 11, 2)
    assert generate.round_specs(workload, 11, 2) == first
    assert generate.round_specs(workload, 12, 2) != first
    assert generate.round_specs(workload, 11, 3) != first


def reference(tree):
    names = generate.order(tree)
    return oracle.Reference(tree, names, random.Random(0))


def test_oracle_reproduces_the_paper_anchors():
    x, y, z = var("x"), var("y"), var("z")
    ref = reference(app("|", x, y))
    assert "".join(map(str, ref.table())) == "0111" and ref.function_index() == 14
    ref = reference(app("maj", x, y, z))
    assert "".join(map(str, ref.table())) == "00010111" and ref.function_index() == 232
    coeffs = oracle.mobius(reference(app("^", x, y)).table(), 2)
    assert coeffs == dict(oracle.parse_poly_text("x + y - 2*x*y", ["x", "y"]))


def test_oracle_rejects_a_wrong_polynomial():
    ref = reference(app("^", var("x"), var("y")))
    with pytest.raises(oracle.Mismatch):
        oracle.check_polynomial(oracle.parse_poly_text("x + y - x*y", ["x", "y"]), ref)


def test_rendered_text_parses_to_the_generated_tree():
    from boolops import parse, truth_vector, VariableOrder

    rng = random.Random(3)
    for _ in range(200):
        tree = generate.small_formula(rng, generate.names(rng, rng.randint(1, 4)))
        names = generate.order(tree)
        for unicode in (False, True):
            tv = truth_vector(parse(generate.render(tree, unicode)), VariableOrder(names))
            assert list(tv.bits) == reference(tree).table()


@pytest.mark.parametrize("kind", generate.MALFORMED)
def test_malformed_inputs_exit_2_or_3(kind):
    spec = generate.malformed_spec(random.Random(kind), kind)
    assert spec["rc"] in (2, 3)
    rc, out, err = run_cli(spec["argv"])
    oracle.check_cli(spec, None, rc, out, err)


@pytest.mark.parametrize("seed", range(3))
def test_cli_round_checks_pass_on_the_program(seed):
    rng = random.Random(seed)
    for spec in generate.round_specs("cli-small", seed, 0):
        ref = oracle.reference_for(spec, rng)
        oracle.check_cli(spec, ref, *run_cli(spec["argv"], spec["stdin"]))


def test_a_wrong_output_is_caught():
    spec = generate.formula_spec(random.Random(1), "eval", app("&", var("a"), var("b")),
                                 structured=False, vars_flag=False)
    ref = oracle.reference_for(spec, random.Random(1))
    wrong = f"{1 - ref.values[spec['row']]}\n"
    with pytest.raises(oracle.Mismatch):
        oracle.check_cli(spec, ref, 0, wrong, "")


def test_tracer_spans_self_time_and_restore():
    import boolops.cli

    original = boolops.cli.truth_vector
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        assert run_cli(["poly", "x ^ y"])[1] == "x + y - 2*x*y\n"
    finally:
        tracer.uninstall()
    assert boolops.cli.truth_vector is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and "truthtable.truth_vector" in names
    assert all(s[3] == 0 for s in tracer.spans[1:])  # children of cli.main
    totals, calls = tracer.self_times()
    main = tracer.spans[0]
    assert sum(totals.values()) == pytest.approx(main[2] - main[1])
    assert calls["multilinear.from_truth_vector"] == 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["why"] == generate.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.layer_units()


def test_fails_without_the_program():
    """A checkout holding only BENCHMARK.json and perfbench/ has nothing to
    measure: the run must fail without printing a result."""
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-small",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert p.returncode != 0 and p.stdout == ""
