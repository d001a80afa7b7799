"""Command-line front end: parse, tabulate, compile, evaluate, verify.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 domain
error (arity caps, mismatched assignments, bad amplitudes, ...), 141
(128 + SIGPIPE) when the reader of standard output closes it early.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from itertools import repeat

from . import multilinear, operators, states
from .errors import DomainError, InvariantViolation, ParseError
from .formula import Formula, VariableOrder, format_formula, parse, variables
from .operators import DENSE_CAP
from .truthtable import (
    ARITY_CAP,
    Interpretation,
    TruthVector,
    _rows,
    eval_formula,
    truth_vector,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_DOMAIN_ERROR = 3
EXIT_BROKEN_PIPE = 141


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


def _emit(args, payload, lines) -> None:
    """Print the form ``--output`` asks for, building only that one:
    ``payload()`` as one compact JSON line, or each of ``lines()``."""
    if args.output == "structured":
        import json  # text mode starts without it

        # The payloads are trees, so the encoder need not track cycles.
        print(json.dumps(payload(), check_circular=False))
    else:
        print("\n".join(lines()))


def _row_labels(n: int):
    """Each row's assignment as ``n`` binary digits, first variable first;
    the single row at arity 0 has the empty label."""
    return map(format, range(1 << n), repeat(f"0{n}b")) if n else iter([""])


def _cmd_table(args) -> int:
    f = _read_formula(args)
    order = _resolve_order(args, f)
    tv = truth_vector(f, order, arity_cap=args.arity_cap)
    name = format_formula(f)
    n = tv.arity

    def lines():
        text = str(tv)
        yield f"{' '.join(order.names)} : {name}" if n else name
        yield from map("{} : {}".format, _row_labels(n), text) if n else [text]
        yield f"truth vector: {text}"
        yield f"function index: f_{tv.function_index}"

    _emit(
        args,
        lambda: {
            "command": "table",
            "name": name,
            "variables": list(order.names),
            "arity": n,
            "rows": [
                {"bits": k, "value": b} for k, b in zip(_row_labels(n), tv.bits)
            ],
            "truth_bits": str(tv),
            "function_index": tv.function_index,
        },
        lines,
    )
    return EXIT_OK


def _cmd_poly(args) -> int:
    f = _read_formula(args)
    order = _resolve_order(args, f)
    names = order.names
    tv = truth_vector(f, order, arity_cap=args.arity_cap)
    if args.output == "text" and args.canonical:
        print(multilinear.format_canonical(tv, names))
        return EXIT_OK
    # One sort of the monomials serves the text and the monomial list.
    terms = multilinear.from_truth_vector(tv, arity_cap=args.arity_cap).monomials()
    if args.canonical:
        text = multilinear.format_canonical(tv, names)
    else:
        text = multilinear.format_terms(terms, names)
    _emit(
        args,
        lambda: {
            "command": "poly",
            "name": format_formula(f),
            "variables": list(names),
            "arity": tv.arity,
            "truth_bits": str(tv),
            "canonical": bool(args.canonical),
            "monomials": [
                {"variables": list(map(names.__getitem__, positions)), "coefficient": c}
                for positions, c in terms
            ],
            "text": text,
        },
        lambda: [text],
    )
    return EXIT_OK


def _cmd_observable(args) -> int:
    f = _read_formula(args)
    order = _resolve_order(args, f)
    tv = truth_vector(f, order, arity_cap=args.arity_cap)
    obs = operators.from_truth_vector(tv)
    dense = obs.dense(dense_cap=args.dense_cap) if args.dense else None
    _emit(
        args,
        lambda: {
            "command": "observable",
            "name": format_formula(f),
            "variables": list(order.names),
            "arity": tv.arity,
            "truth_bits": str(tv),
            "diagonal": list(obs.diagonal),
            "dense": [list(row) for row in dense] if dense is not None else None,
        },
        lambda: [str(obs), *(" ".join(map(str, row)) for row in dense or ())],
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
        lambda: {
            "command": "eval",
            "name": format_formula(f),
            "variables": list(order.names),
            "assignment": str(itp),
            "value": value,
        },
        lambda: [str(value)],
    )
    return EXIT_OK


def _parse_amplitudes(text: str, arity: int) -> states.InterpretationState:
    if text.strip().lower() == "uniform":
        size = 1 << arity
        return states.from_amplitudes(arity, [1 / math.sqrt(size)] * size)
    tokens = list(map(str.strip, text.replace(" ", "").split(",")))
    try:
        items = list(map(complex, tokens))
    except ValueError:
        for token in tokens:  # name the first one that is not a number
            try:
                complex(token)
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
        lambda: {
            "command": "expect",
            "name": format_formula(f),
            "variables": list(order.names),
            "amplitudes": [[a.real, a.imag] for a in state.amplitudes],
            "value": value,
        },
        lambda: [f"{value:.12g}"],
    )
    return EXIT_OK


def _cmd_index(args) -> int:
    if args.arity is None:
        text = args.value.strip()
        if not text or any(ch not in "01" for ch in text):
            raise DomainError(
                f"expected a truth-vector bit string, got {args.value!r}"
            )
        tv = TruthVector.from_bits(text)
        result_lines = [str(tv.function_index)]
    else:
        try:
            index = int(args.value)
        except ValueError:
            raise DomainError(f"expected a function index, got {args.value!r}") from None
        _rows(args.arity, args.arity_cap)  # from_index keeps its own ARITY_CAP
        tv = TruthVector.from_index(args.arity, index)
        result_lines = [str(tv)]
    _emit(
        args,
        lambda: {
            "command": "index",
            "arity": tv.arity,
            "truth_bits": str(tv),
            "function_index": tv.function_index,
        },
        lambda: result_lines,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify  # only this command runs the suite

    results = verify.run_suite(args.arity)
    passed = all(r.passed for r in results)

    def lines():
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            suffix = f" ({r.detail})" if r.detail else ""
            yield f"{status} {r.name}{suffix}"
        yield (
            f"{'all checks passed' if passed else 'FAILURES detected'} "
            f"at arity {args.arity}"
        )

    _emit(
        args,
        lambda: {
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
    # A command builds up to millions of acyclic tuples, frozensets, lists
    # and dicts, which reference counting frees; the cyclic collector would
    # only traverse them again and again.  Also restored on return.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe fails here, not in the final flush
        return code
    except BrokenPipeError:
        # The reader left (e.g. `| head -1`).  Stop quietly; stdout points
        # at devnull so the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        if exc.expected:
            print(f"expected: {', '.join(sorted(exc.expected))}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    finally:
        if collecting:
            gc.enable()
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
