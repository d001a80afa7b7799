"""The four workloads, each a closed loop with one client.

The client sends the next operation only after the previous one returns.
Only the call into the program is timed; building a round's inputs and
references and checking each output happen off the clock.  A run keeps
going, whole rounds at a time, until its timed work reaches ``seconds``
and it has made at least ``min_ops`` operations.
"""

from __future__ import annotations

import io
import json
import os
import random
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import generate
import oracle

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD = HERE / "cli_child.py"

#: Module each workload imports before its first operation.
ENTRY_MODULE = {
    "cli-small": "boolops.cli",
    "compile-wide": "boolops.cli",
    "algebra-mid": "boolops",
    "verify-exhaustive": "boolops.verify",
}

#: Failures this benchmark expects at the commit it was defined on.  They
#: count in ``failed``; any other failure also makes ``correct`` false.
KNOWN_DEFECTS = (
    {
        "id": "table-index-digits",
        "cmd": "table",
        "min_arity": 14,
        "error": "ValueError",
        "message": "Exceeds the limit",
        "note": "function_index above Python's 4300-digit int-to-str limit; ROADMAP item 4",
    },
)

#: A run stops starting rounds after this much wall time, whatever it has
#: measured, so that it ends well within three minutes.
WALL_CAP_S = 110.0


def known_defect(spec, error) -> str | None:
    for d in KNOWN_DEFECTS:
        if (spec.get("cmd") == d["cmd"] and len(spec.get("vars", ())) >= d["min_arity"]
                and type(error).__name__ == d["error"] and d["message"] in str(error)):
            return d["id"]
    return None


class Op:
    __slots__ = ("label", "spec", "call", "check")

    def __init__(self, label, spec, call, check):
        self.label, self.spec, self.call, self.check = label, spec, call, check


class Stats:
    def __init__(self):
        self.latencies: list[float] = []
        self.ok: list[bool] = []
        self.busy = 0.0
        self.rounds = 0
        self.known: dict[str, int] = {}
        self.problems: list[str] = []  # wrong outputs and unexpected failures

    @property
    def attempted(self):
        return len(self.ok)

    @property
    def failed(self):
        return self.ok.count(False)

    def record(self, op, seconds, result, error):
        self.busy += seconds
        self.latencies.append(seconds)
        if error is None:
            try:
                op.check(result)
                self.ok.append(True)
                return
            except oracle.Mismatch as exc:
                self.problems.append(f"{op.label}: wrong output: {exc}")
            except Exception as exc:  # a malformed output the checker cannot read
                self.problems.append(f"{op.label}: unreadable output: {exc!r}")
        else:
            defect = known_defect(op.spec, error)
            if defect:
                self.known[defect] = self.known.get(defect, 0) + 1
            else:
                self.problems.append(f"{op.label}: {type(error).__name__}: {error}"[:300])
        self.ok.append(False)

    def end_to_end(self):
        """Latency percentiles with every failure counted as the whole run's
        time, so it misses any latency limit."""
        lat = [t if ok else self.busy for t, ok in zip(self.latencies, self.ok)]
        p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
        succeeded = self.attempted - self.failed
        return {
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": p90 * 1e3,
            "ops_per_s": succeeded / self.busy,
            "success_ratio": succeeded / self.attempted,
        }


class Context:
    """What the operations of one run share: the child-process environment,
    the program functions that build inputs off the clock (kept from before
    tracing is installed) and, in a traced run, the tracer."""

    def __init__(self, workload, seed):
        from boolops import parse, poly_from_truth_vector, truth_vector

        self.workload = workload
        self.seed = seed
        self.tracer = None
        self.child_import_ms: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.prepare = (parse, truth_vector, poly_from_truth_vector)


# --------------------------------------------------------------------------
# Operations


def _run_cli_process(ctx, spec):
    stdin = spec["stdin"] or ""
    if ctx.tracer is None:
        p = subprocess.run([sys.executable, "-m", "boolops.cli", *spec["argv"]],
                           input=stdin, capture_output=True, encoding="utf-8",
                           env=ctx.env, timeout=60)
        return p.returncode, p.stdout, p.stderr
    p = subprocess.run([sys.executable, str(CHILD), *spec["argv"]],
                       input=stdin, capture_output=True, encoding="utf-8",
                       env=ctx.env, timeout=60)
    envelope = json.loads(p.stdout)
    ctx.tracer.add_spans(envelope["spans"])
    ctx.tracer.counts.update(envelope["counts"])
    ctx.child_import_ms.append(envelope["import_ms"])
    return envelope["rc"], envelope["stdout"], envelope["stderr"]


def _run_cli_inprocess(ctx, spec):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = sys.modules["boolops.cli"].main(list(spec["argv"]))
    text = out.getvalue()
    if ctx.tracer is not None:
        ctx.tracer.counts["cli.stdout_bytes"] += len(text)
    return rc, text, err.getvalue()


def _label(spec):
    if "malformed" in spec:
        return f"{spec['cmd']}/malformed-{spec['malformed']}"
    n = len(spec["vars"]) if "vars" in spec else spec.get("arity", "")
    return f"{spec['cmd']}/n={n}/{spec.get('density', '')}".rstrip("/")


def _cli_op(ctx, spec, rng, runner):
    ref = oracle.reference_for(spec, rng)
    return Op(_label(spec), spec, lambda: runner(ctx, spec),
              lambda result: oracle.check_cli(spec, ref, *result))


def _algebra_op(ctx, pair, rng):
    """One formula pair through the five library calls."""
    from boolops import Interpretation, VariableOrder
    from boolops.formula import Connective

    ml = sys.modules["boolops.multilinear"]
    ops = sys.modules["boolops.operators"]
    parse, truth_vector, from_truth_vector = ctx.prepare
    n, vs = pair["n"], pair["vars"]
    order = VariableOrder(tuple(vs))
    # Operands are built off the clock, from the formula text only.
    p, q = (from_truth_vector(truth_vector(parse(generate.render(pair[k])), order))
            for k in ("p", "q"))
    itp = Interpretation.from_index(n, pair["row"])
    kind = Connective(pair["connective"])

    def call():
        pq = p * q
        return (pq, ml.to_truth_vector(pq), ops.lift_polynomial(p),
                ml.select_cofactor(p, itp), ml.connective_poly(kind, n))

    ref_p = oracle.Reference(pair["p"], vs, rng).table()
    ref_q = oracle.Reference(pair["q"], vs, rng).table()
    both = [a & b for a, b in zip(ref_p, ref_q)]
    conn = generate.app(pair["connective"], *map(generate.var, vs))
    ref_conn = oracle.Reference(conn, vs, rng).table()

    def values(poly):
        return oracle.zeta([(oracle.monomial_mask(s, n), c) for s, c in poly.coeffs.items()], n)

    def check(result):
        pq, tv, lifted, cofactor, conn_poly = result
        oracle.expect(values(pq) == both, "p*q values")
        oracle.expect(list(tv.bits) == both, "to_truth_vector(p*q) bits")
        oracle.expect(list(lifted.diagonal) == ref_p, "lifted diagonal")
        oracle.expect(cofactor == ref_p[pair["row"]], "cofactor value")
        oracle.expect(values(conn_poly) == ref_conn, "connective polynomial")

    return Op(f"pair/n={n}/{pair['density']}/{pair['connective']}", pair, call, check)


def _verify_op(ctx, spec, rng):
    a = spec["arity"]
    return Op(f"run_suite/n={a}", spec,
              lambda: sys.modules["boolops.verify"].run_suite(a, seed=spec["seed"]),
              lambda results: oracle.check_suite(results, a))


def build_round(ctx, index):
    specs = generate.round_specs(ctx.workload, ctx.seed, index)
    rng = random.Random(f"reference/{ctx.workload}/{ctx.seed}/{index}")
    if ctx.workload == "cli-small":
        return [_cli_op(ctx, spec, rng, _run_cli_process) for spec in specs]
    if ctx.workload == "compile-wide":
        return [_cli_op(ctx, spec, rng, _run_cli_inprocess) for spec in specs]
    if ctx.workload == "algebra-mid":
        return [_algebra_op(ctx, pair, rng) for pair in specs]
    return [_verify_op(ctx, spec, rng) for spec in specs]


def run_loop(ctx, *, seconds=None, rounds=None, min_ops=0, after_round=None) -> Stats:
    """Closed loop over whole rounds: a fixed number of them, or until the
    timed work reaches ``seconds`` and ``min_ops`` operations are done.
    ``after_round`` is called, off the clock, after each round."""
    stats = Stats()
    started = perf_counter()
    index = 0
    while True:
        if rounds is not None:
            if index >= rounds:
                break
        elif stats.busy >= seconds and stats.attempted >= min_ops:
            break
        if index and perf_counter() - started > WALL_CAP_S:
            break
        for op in build_round(ctx, index):
            if ctx.tracer is not None:
                ctx.tracer.op = stats.attempted
            error = result = None
            t0 = perf_counter()
            try:
                result = op.call()
            except Exception as exc:
                error = exc
            stats.record(op, perf_counter() - t0, result, error)
        if after_round is not None:
            after_round()
        index += 1
    stats.rounds = index
    return stats
