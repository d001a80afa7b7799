"""Exhaustive invariant suite over the complete function family at one arity.

Checks run over all 2**(2**n) functions, n <= 3, in exact integer
arithmetic with the standard library only.  Two checks certify a fast
path against the paper's literal construction:

- commutation works on literal dense matrices.  Each observable is the
  elective development sum_k f(k) P_k over the rank-1 projectors, and the
  commutator is bilinear, so two dense facts cover every ordered pair:
  the P_k commute pairwise, and each observable's matrix equals its
  development;
- the correspondence check substitutes projectors into each polynomial
  literally to certify the zeta-transform lift.

Everything else uses the exact diagonal and polynomial routes.  A failed
condition raises through ``_require``, never ``assert``, so ``python -O``
cannot turn a failing check into a pass.
"""

from __future__ import annotations

import random
from operator import mul

from . import multilinear, operators
from ._value import Value
from .errors import DomainError, InvariantViolation
from .formula import Connective, VariableOrder, parse, variables
from .operators import DenseMatrix, DiagonalOperator, _matmul, rank1_projector
from .truthtable import Interpretation, TruthVector, eval_formula, truth_vector

MAX_EXHAUSTIVE_ARITY = 3

#: Formulas exercising every connective available at each arity.
_FORMULAS = {
    1: ["0", "!x", "x", "1"],
    2: [
        "0",
        "x nor y",
        "!x & y",
        "!x",
        "x & !y",
        "!y",
        "x ^ y",
        "x nand y",
        "x & y",
        "x <-> y",
        "y",
        "x -> y",
        "x",
        "x <- y",
        "x | y",
        "1",
    ],
    3: [
        "x & y & z",
        "x | y | z",
        "x ^ y ^ z",
        "x nand (y nand z)",
        "x nor y nor z",
        "maj(x, y, z)",
        "x -> (y -> z)",
        "(x <-> y) <-> z",
        "x !-> (y !<- z)",
    ],
}


def _require(condition, message: str = "") -> None:
    """Fail the running check with ``message``."""
    if not condition:
        raise InvariantViolation(message)


def _development(weights, matrices) -> DenseMatrix:
    """The dense matrix sum_k weights[k] * matrices[k]."""
    # rows: row i of every matrix; entries: entry (i, j) of every matrix.
    return tuple(
        tuple(sum(map(mul, weights, entries)) for entries in zip(*rows))
        for rows in zip(*matrices)
    )


def _substitute_projectors(p: multilinear.MultilinearPoly) -> DiagonalOperator:
    """The literal lift: each variable replaced by its logical projector,
    monomials as operator products, coefficients scaling the sum."""
    projectors = [operators.logical_projector(p.arity, k) for k in range(p.arity)]
    acc = DiagonalOperator.zero(p.arity)
    for positions, c in p.monomials():
        term = DiagonalOperator.identity(p.arity)
        for k in positions:
            term = term * projectors[k]
        acc = acc + c * term
    return acc


class CheckResult(Value):
    __slots__ = __match_args__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        Value.__init__(self, name, passed, detail)


class _Suite:
    """The results of the checks run so far, in order."""

    __slots__ = ("results",)

    def __init__(self):
        self.results: list[CheckResult] = []

    def check(self, name: str):
        def run(fn):
            try:
                detail = fn() or ""
                self.results.append(CheckResult(name, True, detail))
            except Exception as exc:  # report, don't abort the suite
                self.results.append(CheckResult(name, False, f"{exc}"))

        return run


def run_suite(arity: int, *, quadruples: int = 1000, seed: int = 20210) -> list[CheckResult]:
    """Run every family-level invariant check at the given arity.

    Exhaustive over all functions; only arities 1..3 are supported.
    """
    if not 1 <= arity <= MAX_EXHAUSTIVE_ARITY:
        raise DomainError(
            f"exhaustive verification supports arity 1..{MAX_EXHAUSTIVE_ARITY}"
        )
    n = arity
    size = 1 << n
    count = 1 << size
    tvs = [TruthVector.from_index(n, i) for i in range(count)]
    observables = [operators.from_truth_vector(tv) for tv in tvs]
    suite = _Suite()

    @suite.check("function enumeration")
    def _():
        distinct = len(set(observables))
        _require(distinct == count, f"{distinct} distinct operators, expected {count}")
        return f"{count} functions"

    @suite.check("projector idempotence")
    def _():
        for f in observables:
            _require(f.is_projector)
            _require(f * f == f)

    @suite.check("pairwise commutation (dense)")
    def _():
        basis = [
            rank1_projector(Interpretation.from_index(n, k)).dense()
            for k in range(size)
        ]
        # The sum/difference check also asks whether the P_k commute; this
        # check asks again so that its verdict rests on no other check.
        for i, p in enumerate(basis):
            for j, q in enumerate(basis[:i]):
                _require(
                    _matmul(p, q) == _matmul(q, p),
                    f"rank-1 projectors {j} and {i} do not commute",
                )
        for tv, f in zip(tvs, observables):
            _require(
                f.dense() == _development(tv.bits, basis),
                f"{f} is not the development of {tv}",
            )
        return f"{count * count} ordered pairs"

    @suite.check("rank-1 orthogonality and completeness")
    def _():
        projectors = [
            rank1_projector(Interpretation.from_index(n, k)) for k in range(size)
        ]
        total = DiagonalOperator.zero(n)
        for i, p in enumerate(projectors):
            _require(p.is_projector and p.trace() == 1)
            _require(p.diagonal[i] == 1)
            total = total + p
            for j, q in enumerate(projectors):
                expected = p if i == j else DiagonalOperator.zero(n)
                _require(p * q == expected)
        _require(total == DiagonalOperator.identity(n))

    @suite.check("complement negation")
    def _():
        for tv, f in zip(tvs, observables):
            _require(f.complement().diagonal == tv.complement().bits)

    @suite.check("De Morgan complements")
    def _():
        if n < 2:
            return "not applicable below two arguments"
        for kind, dual in (
            (Connective.AND, Connective.NAND),
            (Connective.OR, Connective.NOR),
        ):
            base = multilinear.connective_poly(kind, n)
            _require(base.complement() == multilinear.connective_poly(dual, n))
            _require(
                multilinear.to_truth_vector(base).complement()
                == multilinear.to_truth_vector(multilinear.connective_poly(dual, n))
            )

    @suite.check("polynomial-operator correspondence")
    def _():
        for tv, f in zip(tvs, observables):
            poly = multilinear.from_truth_vector(tv)
            _require(multilinear.to_truth_vector(poly) == tv)
            _require(poly * poly == poly)
            lifted = operators.lift_polynomial(poly)
            _require(lifted == f)
            _require(_substitute_projectors(poly) == f)
            _require(lifted.diagonal == tv.bits)

    @suite.check("projector sum/difference rules")
    def _():
        projectors = [
            rank1_projector(Interpretation.from_index(n, k)) for k in range(size)
        ]
        for i, p in enumerate(projectors):
            for j, q in enumerate(projectors):
                report = operators.von_neumann_check(p, q)
                _require(report.commute)
                _require(report.sum_is_projector == (i != j))
                _require(report.difference_is_projector == (i == j))

    @suite.check("Kronecker mixed-product identity")
    def _():
        rng = random.Random(seed)
        for _ in range(quadruples):
            ops = [
                DiagonalOperator(n, [rng.randint(-3, 3) for _ in range(size)])
                for _ in range(4)
            ]
            operators.kron_mixed_product_check(*ops)
        return f"{quadruples} random quadruples"

    @suite.check("trace selection matches evaluation")
    def _():
        for text in _FORMULAS[n]:
            f = parse(text)
            order = variables(f)
            if len(order) < n:  # degenerate connectives keep full arity
                order = VariableOrder(tuple("xyz"[:n]))
            tv = truth_vector(f, order)
            obs = operators.from_truth_vector(tv)
            for k in range(size):
                itp = Interpretation.from_index(n, k)
                _require(
                    operators.trace_select(obs, itp) == eval_formula(f, order, itp)
                )

    return suite.results
