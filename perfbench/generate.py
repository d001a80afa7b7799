"""Seeded inputs for the boolops benchmark.

Every formula is built here as a small tree of tuples and rendered to text;
the program under test only ever sees that text and an argv list.  Trees:

    ("var", name)   ("const", value, text)   ("not", child)
    ("op", symbol, (child, ...))       symbol as written in the grammar

Each workload is a sequence of *rounds*.  A round is a fixed mix of
operation classes (command, arity, density) in seeded order, with fresh
seeded formulas; fixing the mix keeps percentiles comparable across seeds,
while the seed changes every formula, name, row and amplitude.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, NamedTuple

FLAT = ("&", "|", "^")
BINARY = ("nand", "nor", "->", "<-", "!->", "!<-", "<->")
UNICODE = {"&": "∧", "|": "∨", "^": "⊕", "->": "⇒", "<-": "⇐", "<->": "≡"}
LETTERS = "abcdeghijklmnopqrsuvwxyz"  # no f/t: those are the constants F/T


def var(name):
    return ("var", name)


def neg(t):
    return ("not", t)


def app(symbol, *kids):
    return ("op", symbol, tuple(kids))


def render(t, unicode=False) -> str:
    """Formula text; every nested infix node is parenthesized."""
    kind = t[0]
    if kind == "var":
        return t[1]
    if kind == "const":
        return t[2]
    if kind == "not":
        inner = render(t[1], unicode)
        if _infix(t[1]):
            inner = f"({inner})"
        return ("¬" if unicode else "!") + inner
    symbol, kids = t[1], t[2]
    parts = [render(k, unicode) for k in kids]
    if symbol == "maj":
        return "maj(" + ", ".join(parts) + ")"
    parts = [f"({p})" if _infix(k) else p for k, p in zip(kids, parts)]
    if unicode:
        symbol = UNICODE.get(symbol, symbol)
    return f" {symbol} ".join(parts)


def _infix(t) -> bool:
    return t[0] == "op" and t[1] != "maj"


def order(t) -> tuple[str, ...]:
    """Variables in order of first occurrence, left to right."""
    seen: dict[str, None] = {}

    def walk(g):
        if g[0] == "var":
            seen.setdefault(g[1])
        elif g[0] == "not":
            walk(g[1])
        elif g[0] == "op":
            for k in g[2]:
                walk(k)

    walk(t)
    return tuple(seen)


# --------------------------------------------------------------------------
# Formula families


def names(rng: random.Random, n: int) -> list[str]:
    """``n`` distinct variable names, none of them a reserved word."""
    pool = list(LETTERS) + [f"{c}{i}" for c in "pqvw" for i in range(10)]
    return rng.sample(pool, n)


def _combine(rng, nodes, symbols):
    """Join subtrees into one tree with a random shape, keeping every leaf."""
    nodes = list(nodes)
    while len(nodes) > 1:
        symbol = rng.choice(symbols)
        if symbol == "maj" and len(nodes) < 3:
            symbol = "&"
        if symbol == "maj" or (symbol in FLAT and len(nodes) >= 3 and rng.random() < 0.3):
            k = 3
        else:
            k = 2
        picked = [nodes.pop(rng.randrange(len(nodes))) for _ in range(k)]
        nodes.insert(rng.randrange(len(nodes) + 1), app(symbol, *picked))
    return nodes[0]


def _literal(rng, name, p_neg=0.4):
    return neg(var(name)) if rng.random() < p_neg else var(name)


def small_formula(rng, vs):
    """Any connective, literals of every variable, sometimes a repeat or a
    constant leaf."""
    leaves = [_literal(rng, v) for v in vs]
    if rng.random() < 0.3:
        leaves.append(_literal(rng, rng.choice(vs)))
    if rng.random() < 0.15:
        value = rng.randrange(2)
        leaves.append(("const", value, rng.choice(("01"[value], "FT"[value]))))
    if len(leaves) == 1:
        return leaves[0] if rng.random() < 0.5 else neg(leaves[0])
    return _combine(rng, leaves, FLAT + BINARY + ("maj",))


def sparse_formula(rng, vs, clauses, symbols=FLAT + BINARY + ("maj",)):
    """Clauses of positive literals over disjoint variables, joined by
    ``symbols``: a function of ``clauses`` products, so at most
    2**clauses monomials."""
    vs = list(vs)
    rng.shuffle(vs)
    cuts = sorted(rng.sample(range(1, len(vs)), clauses - 1))
    groups = [vs[a:b] for a, b in zip([0] + cuts, cuts + [len(vs)])]
    leaves = [app("&", *map(var, g)) if len(g) > 1 else var(g[0]) for g in groups]
    return _combine(rng, leaves, symbols)


#: Joining disjoint clauses with these keeps every product of clauses, so k
#: clauses give exactly 2**k - 1 monomials (plus perhaps the constant).
FULL_SUPPORT = ("|", "^", "<->", "nor")


def dense_formula(rng, vs):
    """Parity (XOR or XNOR) of a literal of every variable: 2**n - 1
    monomials plus possibly the constant."""
    leaves = [_literal(rng, v, 0.3) for v in vs]
    rng.shuffle(leaves)
    return _combine(rng, leaves, ("^", "^", "<->"))


def wide_formula(rng, n, density):
    vs = names(rng, n)
    if density == "dense":
        return dense_formula(rng, vs)
    return sparse_formula(rng, vs, min(n - 2, 12), FULL_SUPPORT)


# --------------------------------------------------------------------------
# CLI operation specs
#
# A spec is a dict: "cmd", "argv" (without the program), "stdin", "rc" (the
# expected exit code) and what the oracle needs to check the output: "tree",
# "vars" (the variable order the output uses), "structured", plus the
# command's own fields.

STRUCTURED = ["--output", "structured"]


def _vars_flag(rng, tree, spec):
    """Sometimes pass --vars: shuffled, or padded with one unused name."""
    vs = list(order(tree))
    r = rng.random()
    if r < 0.2:
        rng.shuffle(vs)
    elif r < 0.3:
        pool = [c for c in LETTERS if c not in vs]
        vs.insert(rng.randrange(len(vs) + 1), rng.choice(pool))
    else:
        spec["vars"] = vs
        return []
    spec["vars"] = vs
    return ["--vars", ",".join(vs)]


def amplitudes(rng, n, support=None):
    """Comma-separated complex amplitudes over 2**n rows; with ``support``
    only that many seeded rows are nonzero.  Returns (text, {row: value})."""
    size = 1 << n
    rows = range(size) if support is None else sorted(rng.sample(range(size), support))
    values = {}
    for r in rows:
        a = complex(round(rng.uniform(-1, 1), 4), round(rng.uniform(-1, 1), 4))
        if a == 0:
            a = 0.5 + 0j
        values[r] = a
    tokens = ["0"] * size
    for r, a in values.items():
        tokens[r] = f"{a.real:g}{a.imag:+g}j"
    return ",".join(tokens), values


def formula_spec(rng, cmd, tree, *, structured, unicode=False, stdin=False,
                 vars_flag=True, **extra):
    """Spec for one of the five formula subcommands.  Options come first and
    the positionals follow "--", so that neither a leading minus sign nor an
    option between two positionals can confuse the argument parser."""
    spec = {"cmd": cmd, "tree": tree, "structured": structured, "rc": 0,
            "stdin": None, **extra}
    text = render(tree, unicode)
    flags = list(STRUCTURED) if structured else []
    if vars_flag:
        flags += _vars_flag(rng, tree, spec)
    else:
        spec["vars"] = list(order(tree))
    n = len(spec["vars"])
    if spec.get("canonical"):
        flags.append("--canonical")
    if spec.get("dense"):
        flags.append("--dense")
    if stdin:
        spec["stdin"] = text
        text = "-"
    positionals = [text]
    if cmd == "eval":
        spec["row"] = rng.randrange(1 << n)
        positionals.append(format(spec["row"], f"0{n}b"))
    if cmd == "expect":
        if spec.get("uniform"):
            positionals.append("uniform")
        else:
            amps, spec["amps"] = amplitudes(rng, n, spec.get("support"))
            positionals.append(amps)
    spec["argv"] = [cmd, *flags, "--", *positionals]
    return spec


# Malformed inputs and the exit code the CLI documents for each.
def malformed_spec(rng, kind):
    a, b, c = names(rng, 3)
    cmd = rng.choice(("table", "poly", "observable"))
    parse_errors = {
        "truncated": f"{a} & ({b} |",
        "unbalanced": f"({a} | {b}",
        "chained-implication": f"{a} -> {b} -> {c}",
        "bad-character": f"{a} $ {b}",
        "maj-arity": f"maj({a}, {b})",
        "empty": "",
    }
    if kind in parse_errors:
        return {"cmd": cmd, "argv": [cmd, parse_errors[kind]], "stdin": None,
                "rc": 2, "malformed": kind}
    argv = {
        "eval-length": ["eval", f"{a} & {b}", "101"],
        "vars-missing": ["table", f"{a} | {b}", "--vars", a],
        "zero-amplitudes": ["expect", f"{a} ^ {b}", "0,0,0,0"],
        "index-length": ["index", "011"],
        "verify-arity": ["verify", "--arity", "4"],
        "dense-cap": ["observable", f"{a} & {b}", "--dense", "--dense-cap", "1"],
    }[kind]
    return {"cmd": argv[0], "argv": argv, "stdin": None, "rc": 3, "malformed": kind}


MALFORMED = ("truncated", "unbalanced", "chained-implication", "bad-character",
             "maj-arity", "empty", "eval-length", "vars-missing",
             "zero-amplitudes", "index-length", "verify-arity", "dense-cap")


def cli_small_round(rng):
    """21 short CLI runs: every subcommand, arity 1-4, 3 malformed inputs.
    The one ``verify --arity 2`` run is the slowest; at 1 in 21 the 90th
    percentile falls inside the bulk of similar runs, not at its edge."""
    def f():
        return small_formula(rng, names(rng, rng.randint(1, 4)))

    specs = [
        formula_spec(rng, "table", f(), structured=False),
        formula_spec(rng, "table", f(), structured=True, stdin=True),
        formula_spec(rng, "table", f(), structured=False, unicode=True),
        formula_spec(rng, "poly", f(), structured=False),
        formula_spec(rng, "poly", f(), structured=False, canonical=True),
        formula_spec(rng, "poly", f(), structured=True),
        formula_spec(rng, "observable", f(), structured=False),
        formula_spec(rng, "observable", f(), structured=True, dense=True),
        formula_spec(rng, "eval", f(), structured=False),
        formula_spec(rng, "eval", f(), structured=True, unicode=True),
        formula_spec(rng, "expect", f(), structured=False, uniform=True),
        formula_spec(rng, "expect", f(), structured=True),
    ]
    n = rng.randint(1, 4)
    bits = "".join(rng.choice("01") for _ in range(1 << n))
    specs.append({"cmd": "index", "argv": ["index", bits], "stdin": None,
                  "rc": 0, "bits": bits, "structured": False})
    n = rng.randint(1, 3)
    index = rng.randrange(1 << (1 << n))
    specs.append({"cmd": "index", "argv": ["index", *STRUCTURED, "--arity", str(n), str(index)],
                  "stdin": None, "rc": 0, "index": index, "arity": n, "structured": True})
    specs.append({"cmd": "verify", "argv": ["verify", "--arity", "2"], "stdin": None,
                  "rc": 0, "arity": 2, "structured": False})
    specs += [
        formula_spec(rng, "poly", f(), structured=False, stdin=True),
        formula_spec(rng, "observable", f(), structured=True),
        formula_spec(rng, "eval", f(), structured=False),
    ]
    specs += [malformed_spec(rng, kind) for kind in rng.sample(MALFORMED, 3)]
    rng.shuffle(specs)
    return specs


# (command, arity, density) of one compile-wide round.  The table has 14
# variables and a parity's ones reach its last rows, so its function index
# always exceeds the 4300-digit limit (the known defect); one such table in
# 17 keeps failures above the 90th percentile, which falls inside the two
# dense polys.  An odd count puts the median inside a class rather than
# between two.
COMPILE_WIDE_MIX = (
    ("table", 14, "dense"),
    ("poly", 16, "sparse"), ("poly", 17, "sparse"),
    ("poly", 14, "dense"), ("poly", 15, "dense"), ("poly", 15, "dense"),
    ("observable", 15, "dense"), ("observable", 16, "dense"),
    ("observable", 17, "sparse"), ("observable", 18, "sparse"),
    ("eval", 16, "sparse"), ("eval", 17, "dense"), ("eval", 18, "sparse"),
    ("expect", 14, "dense"), ("expect", 15, "sparse"), ("expect", 16, "sparse"),
    ("eval", 15, "dense"),
)
EXPECT_SUPPORT = 16


def compile_wide_round(rng):
    specs = []
    for cmd, n, density in COMPILE_WIDE_MIX:
        extra = {"support": EXPECT_SUPPORT} if cmd == "expect" else {}
        spec = formula_spec(rng, cmd, wide_formula(rng, n, density),
                            structured=True, vars_flag=False, **extra)
        spec["density"] = density
        specs.append(spec)
    rng.shuffle(specs)
    return specs


# (arity, density of p, density of q, connective) of one algebra-mid round.
# Each entry is one operation: the pair through all five library calls.
# Seven entries put the median inside the fourth-cheapest pair and the 90th
# percentile inside the costliest one, not at an edge between two.
ALGEBRA_MIX = (
    (8, "dense", "dense", "&"), (8, "sparse", "dense", "|"),
    (9, "dense", "sparse", "^"), (9, "sparse", "sparse", "nor"),
    (9, "dense", "dense", "nand"), (10, "sparse", "dense", "|"),
    (10, "sparse", "sparse", "^"),
)


def algebra_round(rng):
    pairs = []
    for n, dp, dq, connective in ALGEBRA_MIX:
        vs = names(rng, n)

        def make(density):
            if density == "dense":
                return dense_formula(rng, vs)
            return sparse_formula(rng, vs, 4, FULL_SUPPORT)

        pairs.append({
            "n": n, "vars": vs, "p": make(dp), "q": make(dq),
            "density": f"{dp}x{dq}", "connective": connective,
            # Half the bits set: the cofactor's minterm has 2**(n//2) terms
            # whatever the seed.
            "row": sum(1 << (n - 1 - i) for i in rng.sample(range(n), n // 2)),
        })
    rng.shuffle(pairs)
    return pairs


def verify_round(rng):
    """One verdict per arity 1..3, each with its own sampling seed."""
    arities = [1, 2, 3]
    rng.shuffle(arities)
    return [{"arity": a, "seed": rng.randrange(1 << 30)} for a in arities]


class Workload(NamedTuple):
    round: Callable[[random.Random], list]
    arity: str
    why: str


#: Every workload: its round, the arities it covers and why it exists.
#: BENCHMARK.json repeats the reason of each workload it gates.
WORKLOADS = {
    "cli-small": Workload(
        cli_small_round, "1-4",
        "a fresh boolops process per operation on all seven subcommands at arity 1-4: "
        "interpreter start, import and argparse are nearly all of the time"),
    "compile-wide": Workload(
        compile_wide_round, "14-18",
        "in-process CLI on arity 14-18 sparse and XOR-dense formulas: per-row and "
        "per-monomial Python loops and the 2^n-sized emit dominate"),
    "algebra-mid": Workload(
        algebra_round, "8-10",
        "library product, lift, cofactor and connective calls at arity 8-10: product "
        "and lift are quadratic in the monomial count"),
    "verify-exhaustive": Workload(
        verify_round, "1-3",
        "verify.run_suite at arity 1-3: thousands of calls on 2-8 entry vectors, so "
        "the overhead of each call dominates"),
}


def _op_class(spec) -> str:
    if "malformed" in spec:
        return "malformed input, exit 2 or 3"
    if "connective" in spec:
        return f"pair n={spec['n']} {spec['density']} {spec['connective']}"
    if "cmd" not in spec:
        return f"run_suite({spec['arity']})"
    if "density" in spec:
        return f"{spec['cmd']} n={len(spec['vars'])} {spec['density']}"
    return "verify --arity 2" if spec["cmd"] == "verify" else spec["cmd"]


def round_mix(workload: str) -> dict[str, int]:
    """The operation classes of one round, with how many of each."""
    return dict(sorted(Counter(map(_op_class, round_specs(workload, 0, 0))).items()))


def round_specs(workload: str, seed: int, index: int):
    """The ``index``-th round of a workload; a pure function of its arguments."""
    return WORKLOADS[workload].round(random.Random(f"{workload}/{seed}/{index}"))
