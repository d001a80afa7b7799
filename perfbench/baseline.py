"""Record perfbench/baseline.json: every workload, ten seeds, untraced, in
two sets, plus one traced run each, all at BENCHMARK.json's run_seconds.

    python3 perfbench/baseline.py --commit <hash>    # about an hour on 2 vCPUs

The first set runs every workload, then the second set runs them all
again with the same seeds.  For each set and end-to-end metric it stores
the value of every seed, their median and quartiles, and the spread
(interquartile distance over the median) next to the metric's bound from
BENCHMARK.json; ``second_worse_by`` is how much worse the second set's
median is than the first's, as a share of the first.  Workloads that
BENCHMARK.json does not list are recorded too, marked ``"gated": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import generate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(runs, metric, bound):
    values = [r["metrics"][metric]["value"] for r in runs]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commit", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    gated = {w["name"] for w in spec["workloads"]}
    import numpy

    runs = {name: [] for name in generate.WORKLOADS}
    for number in range(SETS):
        for name in generate.WORKLOADS:
            start = perf_counter()
            runs[name].append([run(name, seed, seconds, 0) for seed in SEEDS])
            print(f"set {number + 1} {name}: {(perf_counter() - start) / len(SEEDS):.1f} s "
                  "a run", flush=True)

    record = {
        "commit": args.commit,
        "note": "Measured with this benchmark at the commit above; these numbers "
                "replace the one-off probe figures in ROADMAP.md.",
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "model": "closed loop, one client, one process per run, no extra threads; "
                 "whole rounds until the timed work reaches run_seconds and at "
                 "least 100 operations",
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "known_defects": list(workloads.KNOWN_DEFECTS),
        "workloads": {},
    }
    for name, w in generate.WORKLOADS.items():
        sets = runs[name]
        e2e = {}
        for metric, m in metrics.items():
            first, second = (summary(s, metric, m["bound"]) for s in sets)
            change = (second["median"] - first["median"]) / first["median"]
            e2e[metric] = {
                "unit": m["unit"],
                "second_worse_by": change if m["better"] == "lower" else -change,
                "set_1": first,
                "set_2": second,
            }
        traced = run(name, SEEDS[0], seconds, 1)
        every = [r for s in sets for r in s]
        record["workloads"][name] = {
            "gated": name in gated,
            "why": w.why,
            "arity": w.arity,
            "round": generate.round_mix(name),
            "attempted": [[r["attempted"] for r in s] for s in sets],
            "failed": [[r["failed"] for r in s] for s in sets],
            "correct": all(r["correct"] for r in every) and traced["correct"],
            "end_to_end": e2e,
            "per_layer_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(name, {k: [round(v[f"set_{i}"]["spread"], 4) for i in (1, 2)]
                     + [round(v["second_worse_by"], 4)] for k, v in e2e.items()}, flush=True)
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
