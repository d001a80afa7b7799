"""boolops benchmark: one workload per run, outputs checked against the
benchmark's own oracle.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Prints each metric with its unit, then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import generate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = tuple(generate.WORKLOADS)
MIN_OPS = 100  # enough for ten samples above the 90th percentile
MIN_SETUP_PROBES = 7
E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "success_ratio": "ratio",
}

_PROBE = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "importlib.import_module(sys.argv[2])\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds(module: str) -> float:
    """Import time of ``module`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _PROBE, str(SRC), module],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def end_to_end(workloads, ctx, args):
    """One set-up probe after each round spreads them over the run, so their
    median does not hang on a few seconds of machine speed."""
    module = workloads.ENTRY_MODULE[args.workload]
    import_seconds(module)  # fills the bytecode cache; not counted
    setups = []
    stats = workloads.run_loop(ctx, seconds=args.seconds, min_ops=MIN_OPS,
                               after_round=lambda: setups.append(import_seconds(module)))
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(import_seconds(module))
    metrics = stats.end_to_end()
    # For cli-small the program runs in child processes.  The probes are
    # children too, but import no more than every operation does.
    metrics["peak_rss_mib"] = peak_rss_mib(children=args.workload == "cli-small")
    metrics["setup_s"] = statistics.median(setups)
    return stats, metrics


def per_layer(workloads, ctx, args, import_ms):
    from tracing import COUNTERS, SPAN_NAMES, Tracer

    plain = workloads.run_loop(ctx, seconds=args.seconds / 2)
    ctx.tracer = tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.run_loop(ctx, rounds=plain.rounds)
    finally:
        tracer.uninstall()
    ops = traced.attempted
    totals, calls = tracer.self_times()
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_ms"] = totals.get(name, 0.0) * 1e3 / ops
        metrics[f"{name}.calls"] = calls.get(name, 0) / ops
    for name in COUNTERS:
        metrics[name] = tracer.counts.get(name, 0) / ops
    if ctx.child_import_ms:
        import_ms = statistics.mean(ctx.child_import_ms)
    metrics["cli.import_ms"] = import_ms
    metrics["trace.overhead_ratio"] = traced.busy / plain.busy
    metrics["trace.span_share"] = tracer.covered() / traced.busy
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"spans-{args.workload}-{args.seed}.jsonl")
    return traced, metrics, plain


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "boolops" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'boolops'}", file=sys.stderr)
        return 2
    import workloads

    sys.path.insert(0, str(SRC))
    start = perf_counter()
    importlib.import_module(workloads.ENTRY_MODULE[args.workload])
    import_ms = (perf_counter() - start) * 1e3
    import boolops

    if Path(boolops.__file__).resolve().parent != SRC / "boolops":
        print(f"error: imported boolops from {boolops.__file__}", file=sys.stderr)
        return 2

    ctx = workloads.Context(args.workload, args.seed)
    if args.trace:
        stats, metrics, plain = per_layer(workloads, ctx, args, import_ms)
    else:
        stats, metrics = end_to_end(workloads, ctx, args)

    from tracing import layer_units

    unit = layer_units() if args.trace else E2E_UNITS
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {stats.rounds}  operations {stats.attempted}  failed {stats.failed}  "
          f"failed_ratio {stats.failed / stats.attempted:.4f}  timed {stats.busy:.2f} s")
    for defect, count in stats.known.items():
        print(f"known defect {defect}: {count} failed operations")
    for problem in stats.problems[:20]:
        print(f"PROBLEM {problem}")
    for name in unit:
        print(f"  {name:40s} {metrics[name]:14.6g} {unit[name]}")
    correct = not stats.problems and (not args.trace or not plain.problems)
    print(json.dumps({
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in unit.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
