"""Command-line front end: parse, tabulate, compile, evaluate, verify.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 domain
error (arity caps, mismatched assignments, bad amplitudes, ...).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import multilinear, operators, states, verify
from .errors import DomainError, ParseError
from .formula import Formula, VariableOrder, format_formula, parse, variables
from .operators import DENSE_CAP
from .truthtable import ARITY_CAP, Interpretation, TruthVector, eval_formula, truth_vector

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_DOMAIN_ERROR = 3


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--vars",
        metavar="NAMES",
        help="comma-separated variable order; may pad with unused variables",
    )
    common.add_argument(
        "--output", choices=("text", "structured"), default="text",
        help="text (default) or structured JSON",
    )
    common.add_argument("--arity-cap", type=int, default=ARITY_CAP, metavar="N")
    common.add_argument("--dense-cap", type=int, default=DENSE_CAP, metavar="N")

    p = argparse.ArgumentParser(
        prog="boolops",
        description=(
            "Compile propositional formulas into truth tables, multilinear "
            "integer polynomials, and diagonal projector observables."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def formula_arg(sp):
        sp.add_argument(
            "formula", nargs="?",
            help="formula text; reads standard input when omitted or '-'",
        )

    sp = sub.add_parser("table", parents=[common], help="print the truth table")
    formula_arg(sp)

    sp = sub.add_parser("poly", parents=[common], help="print the polynomial form")
    formula_arg(sp)
    sp.add_argument(
        "--canonical", action="store_true",
        help="print the minterm-sum form with (1-x) factors",
    )

    sp = sub.add_parser(
        "observable", parents=[common], help="print the diagonal observable"
    )
    formula_arg(sp)
    sp.add_argument("--dense", action="store_true", help="print the full matrix")

    sp = sub.add_parser(
        "eval", parents=[common], help="evaluate at one assignment"
    )
    formula_arg(sp)
    sp.add_argument(
        "assignment", help="bit string in variable order, e.g. 10 for x=1 y=0"
    )

    sp = sub.add_parser(
        "expect", parents=[common], help="expectation value on a state"
    )
    formula_arg(sp)
    sp.add_argument(
        "amplitudes",
        help="comma-separated complex amplitudes (2**n of them) or 'uniform'",
    )

    sp = sub.add_parser(
        "index", parents=[common],
        help="truth-vector bits -> function index, or back with --arity",
    )
    sp.add_argument(
        "value",
        help="truth-vector bit string, or a function index when --arity is given",
    )
    sp.add_argument(
        "--arity", type=int, default=None, metavar="N",
        help="decode VALUE as a function index at this arity",
    )

    sp = sub.add_parser(
        "verify", parents=[common], help="run the family invariant suite"
    )
    sp.add_argument("--arity", type=int, default=2, metavar="N")

    return p


def _read_formula(args) -> Formula:
    text = args.formula
    if text is None or text == "-":
        text = sys.stdin.read()
    return parse(text)


def _resolve_order(args, f: Formula) -> VariableOrder:
    if not args.vars:
        return variables(f)
    try:
        order = VariableOrder(tuple(s.strip() for s in args.vars.split(",")))
    except ValueError as exc:
        raise DomainError(f"--vars: {exc}") from None
    for name in variables(f):
        if name not in order:
            raise DomainError(f"formula variable {name!r} missing from --vars")
    return order


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.output == "structured":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_table(args) -> int:
    f = _read_formula(args)
    order = _resolve_order(args, f)
    tv = truth_vector(f, order, arity_cap=args.arity_cap)
    name = format_formula(f)
    rows = [
        {"bits": str(Interpretation.from_index(tv.arity, k)), "value": b}
        for k, b in enumerate(tv.bits)
    ]
    lines = [f"{' '.join(order.names)} : {name}" if order.names else name]
    lines += [
        f"{row['bits']} : {row['value']}" if row["bits"] else str(row["value"])
        for row in rows
    ]
    lines += [f"truth vector: {tv}", f"function index: f_{tv.function_index}"]
    _emit(
        args,
        {
            "command": "table",
            "name": name,
            "variables": list(order.names),
            "arity": tv.arity,
            "rows": rows,
            "truth_bits": str(tv),
            "function_index": tv.function_index,
        },
        lines,
    )
    return EXIT_OK


def _cmd_poly(args) -> int:
    f = _read_formula(args)
    order = _resolve_order(args, f)
    tv = truth_vector(f, order, arity_cap=args.arity_cap)
    names = order.names or None
    poly = multilinear.from_truth_vector(tv, arity_cap=args.arity_cap)
    if args.canonical:
        text = multilinear.format_canonical(tv, names)
    else:
        text = poly.format(names)
    monomials = [
        {
            "variables": [order.names[p] for p in positions],
            "coefficient": c,
        }
        for positions, c in poly.monomials()
    ]
    _emit(
        args,
        {
            "command": "poly",
            "name": format_formula(f),
            "variables": list(order.names),
            "arity": tv.arity,
            "truth_bits": str(tv),
            "canonical": bool(args.canonical),
            "monomials": monomials,
            "text": text,
        },
        [text],
    )
    return EXIT_OK


def _cmd_observable(args) -> int:
    f = _read_formula(args)
    order = _resolve_order(args, f)
    tv = truth_vector(f, order, arity_cap=args.arity_cap)
    obs = operators.from_truth_vector(tv)
    lines = [str(obs)]
    dense = None
    if args.dense:
        dense = obs.dense(dense_cap=args.dense_cap)
        lines += [" ".join(map(str, row)) for row in dense]
    _emit(
        args,
        {
            "command": "observable",
            "name": format_formula(f),
            "variables": list(order.names),
            "arity": tv.arity,
            "truth_bits": str(tv),
            "diagonal": list(obs.diagonal),
            "dense": [list(row) for row in dense] if dense is not None else None,
        },
        lines,
    )
    return EXIT_OK


def _parse_assignment(text: str, arity: int) -> Interpretation:
    if any(ch not in "01" for ch in text):
        raise DomainError(f"assignment must be a bit string, got {text!r}")
    if len(text) != arity:
        raise DomainError(
            f"assignment {text!r} has {len(text)} bits, expected {arity}"
        )
    return Interpretation(tuple(int(ch) for ch in text))


def _cmd_eval(args) -> int:
    f = _read_formula(args)
    order = _resolve_order(args, f)
    itp = _parse_assignment(args.assignment, len(order))
    value = eval_formula(f, order, itp)
    _emit(
        args,
        {
            "command": "eval",
            "name": format_formula(f),
            "variables": list(order.names),
            "assignment": str(itp),
            "value": value,
        },
        [str(value)],
    )
    return EXIT_OK


def _parse_amplitudes(text: str, arity: int) -> states.InterpretationState:
    if text.strip().lower() == "uniform":
        size = 1 << arity
        return states.from_amplitudes(arity, [1 / math.sqrt(size)] * size)
    items = []
    for token in text.split(","):
        token = token.strip().replace(" ", "")
        try:
            items.append(complex(token))
        except ValueError:
            raise DomainError(f"invalid amplitude {token!r}") from None
    return states.from_amplitudes(arity, items)


def _cmd_expect(args) -> int:
    f = _read_formula(args)
    order = _resolve_order(args, f)
    tv = truth_vector(f, order, arity_cap=args.arity_cap)
    state = _parse_amplitudes(args.amplitudes, tv.arity)
    value = states.expectation(operators.from_truth_vector(tv), state)
    _emit(
        args,
        {
            "command": "expect",
            "name": format_formula(f),
            "variables": list(order.names),
            "amplitudes": [[a.real, a.imag] for a in state.amplitudes],
            "value": value,
        },
        [f"{value:.12g}"],
    )
    return EXIT_OK


def _cmd_index(args) -> int:
    if args.arity is None:
        text = args.value.strip()
        if not text or any(ch not in "01" for ch in text):
            raise DomainError(
                f"expected a truth-vector bit string, got {args.value!r}"
            )
        tv = TruthVector.from_bits(int(ch) for ch in text)
        result_lines = [str(tv.function_index)]
    else:
        try:
            index = int(args.value)
        except ValueError:
            raise DomainError(f"expected a function index, got {args.value!r}") from None
        tv = TruthVector.from_index(args.arity, index)
        result_lines = [str(tv)]
    _emit(
        args,
        {
            "command": "index",
            "arity": tv.arity,
            "truth_bits": str(tv),
            "function_index": tv.function_index,
        },
        result_lines,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = verify.run_suite(args.arity)
    passed = all(r.passed for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        suffix = f" ({r.detail})" if r.detail else ""
        lines.append(f"{status} {r.name}{suffix}")
    lines.append(
        f"{'all checks passed' if passed else 'FAILURES detected'} "
        f"at arity {args.arity}"
    )
    _emit(
        args,
        {
            "command": "verify",
            "arity": args.arity,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": passed,
        },
        lines,
    )
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


_COMMANDS = {
    "table": _cmd_table,
    "poly": _cmd_poly,
    "observable": _cmd_observable,
    "eval": _cmd_eval,
    "expect": _cmd_expect,
    "index": _cmd_index,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # A function index has 2**n bits, so from n = 14 on its decimal form
    # passes Python's default int/str conversion limit of 4300 digits.  The
    # limit is process-wide, hence restored for in-process callers.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        if exc.expected:
            print(f"expected: {', '.join(sorted(exc.expected))}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
