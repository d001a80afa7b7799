"""The benchmark's own reference: an evaluator for generated formula trees
and checkers for every output the benchmark asks the program for.

Nothing here imports the program.  Truth values come from evaluating the
tree row by row; polynomials are checked by summing the returned
coefficients over the monomials contained in each reference row (the
subset-sum, done as a zeta transform when every row is a reference row).
"""

from __future__ import annotations

import json
import random
import sys
from contextlib import contextmanager

#: Reference rows: every row up to this arity, a seeded sample above it.
FULL_ARITY = 10
SAMPLED_ROWS = 16
FUZZY_TOL = 1e-12

VERIFY_CHECKS = (
    "function enumeration",
    "projector idempotence",
    "pairwise commutation (dense)",
    "rank-1 orthogonality and completeness",
    "complement negation",
    "De Morgan complements",
    "polynomial-operator correspondence",
    "projector sum/difference rules",
    "Kronecker mixed-product identity",
    "trace selection matches evaluation",
)


class Mismatch(Exception):
    """An output disagrees with the reference."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


_APPLY = {
    "&": lambda v: int(all(v)),
    "|": lambda v: int(any(v)),
    "^": lambda v: sum(v) & 1,
    "nand": lambda v: 1 - int(all(v)),
    "nor": lambda v: 1 - int(any(v)),
    "->": lambda v: int(v[0] <= v[1]),
    "<-": lambda v: int(v[0] >= v[1]),
    "!->": lambda v: int(v[0] > v[1]),
    "!<-": lambda v: int(v[0] < v[1]),
    "<->": lambda v: int(v[0] == v[1]),
    "maj": lambda v: int(sum(v) >= 2),
}


def evaluate(t, env) -> int:
    kind = t[0]
    if kind == "var":
        return env[t[1]]
    if kind == "const":
        return t[1]
    if kind == "not":
        return 1 - evaluate(t[1], env)
    return _APPLY[t[1]]([evaluate(k, env) for k in t[2]])


def row_env(names, row):
    """Assignment of row ``row``: the first variable is the most significant bit."""
    n = len(names)
    return {v: (row >> (n - 1 - p)) & 1 for p, v in enumerate(names)}


class Reference:
    """Truth values of one tree over a variable order, at the reference rows."""

    def __init__(self, tree, names, rng: random.Random, extra_rows=()):
        self.names = list(names)
        self.n = n = len(self.names)
        size = 1 << n
        if n <= FULL_ARITY:
            rows = range(size)
        else:
            rows = {0, size - 1, *rng.sample(range(size), SAMPLED_ROWS), *extra_rows}
        self.values = {r: evaluate(tree, row_env(self.names, r)) for r in sorted(rows)}
        self.full = n <= FULL_ARITY

    def table(self) -> list[int]:
        assert self.full
        return [self.values[r] for r in range(1 << self.n)]

    def function_index(self) -> int:
        return sum(v << r for r, v in self.values.items())


def reference_for(spec, rng) -> Reference | None:
    if "tree" not in spec:
        return None
    extra = [spec["row"]] if "row" in spec else list(spec.get("amps") or ())
    return Reference(spec["tree"], spec["vars"], rng, extra)


# --------------------------------------------------------------------------
# Polynomials as (row mask, coefficient) lists


def monomial_mask(positions, n) -> int:
    """Row-index mask of a monomial: position p owns row bit n-1-p."""
    mask = 0
    for p in positions:
        mask |= 1 << (n - 1 - p)
    return mask


def zeta(monomials, n) -> list[int]:
    """Value at every row: the sum over monomials contained in the row."""
    vals = [0] * (1 << n)
    for mask, c in monomials:
        vals[mask] += c
    for j in range(n):
        bit = 1 << j
        for m in range(1 << n):
            if m & bit:
                vals[m] += vals[m ^ bit]
    return vals


def mobius(table, n) -> dict[int, int]:
    """Coefficients of the unique multilinear interpolant, keyed by mask."""
    vals = list(table)
    for j in range(n):
        bit = 1 << j
        for m in range(1 << n):
            if m & bit:
                vals[m] -= vals[m ^ bit]
    return {m: c for m, c in enumerate(vals) if c}


def check_polynomial(monomials, ref: Reference, what="polynomial"):
    masks = [m for m, _ in monomials]
    expect(len(set(masks)) == len(masks), f"{what}: repeated monomial")
    if ref.full:
        expect(zeta(monomials, ref.n) == ref.table(), f"{what}: wrong values")
        return
    for r, v in ref.values.items():
        got = sum(c for m, c in monomials if m & r == m)
        expect(got == v, f"{what}: value {got} at row {r}, expected {v}")


def parse_poly_text(text, names):
    """Monomials of a printed polynomial such as ``x + y - 2*x*y``."""
    n = len(names)
    pos = {v: p for p, v in enumerate(names)}
    tokens = text.split(" ")
    if tokens == ["0"]:
        return []
    terms = [(-1, tokens[0][1:]) if tokens[0].startswith("-") else (1, tokens[0])]
    expect(len(tokens) % 2 == 1, f"malformed polynomial text {text!r}")
    for sign, body in zip(tokens[1::2], tokens[2::2]):
        expect(sign in "+-", f"malformed polynomial text {text!r}")
        terms.append((1 if sign == "+" else -1, body))
    out = []
    for sign, body in terms:
        coeff, positions = 1, []
        for factor in body.split("*"):
            if factor.isdigit():
                coeff = int(factor)
            else:
                expect(factor in pos, f"unknown variable {factor!r} in {text!r}")
                positions.append(pos[factor])
        out.append((monomial_mask(positions, n), sign * coeff))
    return out


def parse_canonical_text(text, names):
    """Rows listed by a minterm sum such as ``(1-x)*y + x*(1-y)``."""
    if text == "0":
        return set()
    rows = set()
    for term in text.split(" + "):
        factors = term.split("*")
        expect(len(factors) == len(names), f"minterm {term!r} misses a variable")
        row = 0
        for v, factor in zip(names, factors):
            bit = {v: 1, f"(1-{v})": 0}.get(factor)
            expect(bit is not None, f"bad factor {factor!r} in {term!r}")
            row = (row << 1) | bit
        rows.add(row)
    return rows


# --------------------------------------------------------------------------
# CLI outputs


@contextmanager
def unlimited_int_digits():
    """Read outputs with integers longer than the interpreter's default
    4300-digit limit; restored before the program runs again."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def check_cli(spec, ref: Reference | None, rc, out: str, err: str):
    expect(rc == spec["rc"], f"exit code {rc}, expected {spec['rc']}: {err[-300:]!r}")
    if spec["rc"]:
        expect(out == "", "output on a failing run")
        prefix = "parse error:" if spec["rc"] == 2 else "error:"
        expect(err.startswith(prefix), f"stderr {err[:80]!r}")
        return
    with unlimited_int_digits():
        data = json.loads(out) if spec["structured"] else None
        _CHECKS[spec["cmd"]](spec, ref, data, out)


def _check_table(spec, ref, data, out):
    n = ref.n
    if data is not None:
        expect(data["variables"] == ref.names, "table variables")
        bits, index = data["truth_bits"], data["function_index"]
    else:
        lines = out.splitlines()
        expect(len(lines) == (1 << n) + 3, "table line count")
        expect(lines[-2].startswith("truth vector: "), "truth vector line")
        expect(lines[-1].startswith("function index: f_"), "function index line")
        bits = lines[-2][len("truth vector: "):]
        index = int(lines[-1][len("function index: f_"):])
        for r, v in ref.values.items():
            row = format(r, f"0{n}b") if n else ""
            expect(lines[1 + r] == (f"{row} : {v}" if n else str(v)), f"table row {r}")
    expect(len(bits) == 1 << n, "truth vector length")
    for r, v in ref.values.items():
        expect(bits[r] == str(v), f"truth bit at row {r}")
        expect((index >> r) & 1 == v, f"function index bit {r}")
    if ref.full:
        expect(index == ref.function_index(), "function index")


def _check_poly(spec, ref, data, out):
    text = data["text"] if data is not None else out.rstrip("\n")
    if spec.get("canonical"):
        rows = {r for r, v in ref.values.items() if v}
        expect(parse_canonical_text(text, ref.names) == rows, "canonical minterms")
        return
    if data is not None:
        pos = {v: p for p, v in enumerate(ref.names)}
        monomials = [
            (monomial_mask([pos[v] for v in m["variables"]], ref.n), m["coefficient"])
            for m in data["monomials"]
        ]
    else:
        monomials = parse_poly_text(text, ref.names)
    check_polynomial(monomials, ref)


def _check_observable(spec, ref, data, out):
    size = 1 << ref.n
    if data is not None:
        diagonal, dense = data["diagonal"], data["dense"]
    else:
        lines = out.splitlines()
        first = lines[0]
        expect(first.startswith("diag(") and first.endswith(")"), "diag line")
        diagonal = [int(x) for x in first[5:-1].split(",")]
        dense = [[int(x) for x in line.split()] for line in lines[1:]] or None
    expect(len(diagonal) == size, "diagonal length")
    for r, v in ref.values.items():
        expect(diagonal[r] == v, f"diagonal entry {r}")
    if spec.get("dense"):
        expect(dense is not None and len(dense) == size, "dense matrix size")
        for i, row in enumerate(dense):
            expect(row == [diagonal[i] if j == i else 0 for j in range(size)],
                   f"dense row {i}")


def _check_eval(spec, ref, data, out):
    value = data["value"] if data is not None else int(out)
    expect(value == ref.values[spec["row"]], "evaluated value")


def expectation(spec, ref):
    if spec.get("uniform"):
        return sum(ref.values.values()) / (1 << ref.n)
    weights = {r: abs(a) ** 2 for r, a in spec["amps"].items()}
    return sum(w * ref.values[r] for r, w in weights.items()) / sum(weights.values())


def _check_expect(spec, ref, data, out):
    value = data["value"] if data is not None else float(out)
    want = expectation(spec, ref)
    expect(abs(value - want) <= FUZZY_TOL, f"expectation {value!r}, expected {want!r}")


def _check_index(spec, ref, data, out):
    if "bits" in spec:
        bits = spec["bits"]
        want = sum(int(b) << k for k, b in enumerate(bits))
        got = data["function_index"] if data is not None else int(out)
        expect(got == want, "function index of bits")
    else:
        index, size = spec["index"], 1 << spec["arity"]
        want = "".join(str((index >> k) & 1) for k in range(size))
        got = data["truth_bits"] if data is not None else out.strip()
        expect(got == want, "bits of function index")


def _check_verify(spec, ref, data, out):
    if data is not None:
        expect(data["passed"] is True, "verify verdict")
        names = [c["name"] for c in data["checks"]]
        expect(all(c["passed"] for c in data["checks"]), "a verify check failed")
    else:
        lines = out.splitlines()
        expect(lines[-1] == f"all checks passed at arity {spec['arity']}", "verify verdict")
        expect(len(lines) == len(VERIFY_CHECKS) + 1, "verify check count")
        for line, name in zip(lines, VERIFY_CHECKS):
            expect(line == f"PASS {name}" or line.startswith(f"PASS {name} ("),
                   f"verify line {line!r}")
        return
    expect(tuple(names) == VERIFY_CHECKS, f"verify check list {names}")


_CHECKS = {
    "table": _check_table,
    "poly": _check_poly,
    "observable": _check_observable,
    "eval": _check_eval,
    "expect": _check_expect,
    "index": _check_index,
    "verify": _check_verify,
}


def check_suite(results, arity):
    """A ``verify.run_suite`` result: every known check, all passing."""
    expect(tuple(r.name for r in results) == VERIFY_CHECKS, "verify check list")
    failed = [r.name for r in results if not r.passed]
    expect(not failed, f"verify checks failed: {failed}")
    expect(results[0].detail == f"{1 << (1 << arity)} functions", "function count")

