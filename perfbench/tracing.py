"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``boolops`` module namespace that holds it, because the modules
import one another's functions by name (``boolops.cli.truth_vector`` is the
object ``cli`` calls, not ``boolops.truthtable.truth_vector``).  Nothing
under ``src/`` changes; ``uninstall`` puts the originals back.

A span is ``(name, start, end, parent index, operation id)``.  Spans stay in
memory and are written out once at the end.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _nonzeros(op):
    return sum(1 for d in op.diagonal if d)


def _nodes(f):
    operands = getattr(f, "operands", None)
    if operands is not None:
        return 1 + sum(_nodes(g) for g in operands)
    operand = getattr(f, "operand", None)
    return 1 + (_nodes(operand) if operand is not None else 0)


# (span name, module, attribute, size counter, size of the result)
FUNCTIONS = (
    ("cli.main", "boolops.cli", "main", None, None),
    ("formula.parse", "boolops.formula", "parse", "formula.nodes", _nodes),
    ("formula.format_formula", "boolops.formula", "format_formula", None, None),
    ("truthtable.truth_vector", "boolops.truthtable", "truth_vector",
     "truthtable.rows", lambda tv: len(tv.bits)),
    ("truthtable.eval_formula", "boolops.truthtable", "eval_formula", None, None),
    ("multilinear.from_truth_vector", "boolops.multilinear", "from_truth_vector",
     "multilinear.monomials", lambda p: len(p.coeffs)),
    ("multilinear.to_truth_vector", "boolops.multilinear", "to_truth_vector", None, None),
    ("multilinear.select_cofactor", "boolops.multilinear", "select_cofactor", None, None),
    ("operators.from_truth_vector", "boolops.operators", "from_truth_vector",
     "operators.diag_nonzeros", _nonzeros),
    ("operators.lift_polynomial", "boolops.operators", "lift_polynomial",
     "operators.diag_nonzeros", _nonzeros),
    ("operators.trace_select", "boolops.operators", "trace_select", None, None),
    ("operators.von_neumann_check", "boolops.operators", "von_neumann_check", None, None),
    ("operators.kron_mixed_product_check", "boolops.operators",
     "kron_mixed_product_check", None, None),
    ("states.from_amplitudes", "boolops.states", "from_amplitudes",
     "states.amplitudes", lambda s: len(s.amplitudes)),
    ("states.expectation", "boolops.states", "expectation", None, None),
    ("verify.run_suite", "boolops.verify", "run_suite",
     "verify.checks_failed", lambda rs: sum(1 for r in rs if not r.passed)),
)
# (span name, class attribute names) on boolops.multilinear.MultilinearPoly
METHODS = (
    ("multilinear.mul", ("__mul__", "__rmul__"), "multilinear.monomials",
     lambda p: len(p.coeffs) if hasattr(p, "coeffs") else 0),
    ("multilinear.format", ("format",), None, None),
)
SPAN_NAMES = tuple(f[0] for f in FUNCTIONS) + tuple(m[0] for m in METHODS)
#: Size counters, summed over the results of the traced calls.
COUNTERS = ("cli.stdout_bytes", "formula.nodes", "truthtable.rows",
            "multilinear.monomials", "operators.diag_nonzeros",
            "states.amplitudes", "verify.checks_failed")


def layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_ms"] = "ms/op"
        units[f"{name}.calls"] = "count/op"
    units["cli.import_ms"] = "ms"
    for name in COUNTERS:
        units[name] = "B/op" if name == "cli.stdout_bytes" else "count/op"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.span_share"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording

    def wrap(self, name, fn, counter=None, size=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent] == name:  # recursion: one span
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(name)  # replaced by the span when the call returns
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if counter:
                self.counts[counter] += size(result)
            return result

        return traced

    def add_spans(self, spans):
        """Append spans recorded by another process, as one operation."""
        base = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1, self.op))

    # -- patching

    def install(self):
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "boolops"]
        for name, module, attr, counter, size in FUNCTIONS:
            if module not in sys.modules:  # never imported, so never called
                continue
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original, counter, size)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        cls = sys.modules["boolops.multilinear"].MultilinearPoly
        for name, attrs, counter, size in METHODS:
            for attr in attrs:
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self.wrap(name, original, counter, size))

    def uninstall(self):
        for obj, key, value in reversed(self._restore):
            setattr(obj, key, value)
        self._restore.clear()

    # -- results

    def self_times(self):
        """Per span name: (total self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
            calls[name] += 1
        return totals, calls

    def covered(self) -> float:
        """Seconds covered by top-level spans."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
