"""Exhaustive invariant suite over the complete function family at one arity.

Checks run over all 2**(2**n) functions, n <= 3.  The commutation check
builds literal dense matrices (via numpy, exact integers) to certify the
diagonal fast path, and the correspondence check substitutes projectors
into each polynomial literally to certify the zeta-transform lift;
everything else uses the exact diagonal and polynomial routes.
"""

from __future__ import annotations

import random

from . import multilinear, operators
from ._value import Value
from .errors import DomainError
from .formula import Connective, VariableOrder, parse, variables
from .operators import DiagonalOperator, rank1_projector
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
        assert distinct == count, f"{distinct} distinct operators, expected {count}"
        return f"{count} functions"

    @suite.check("projector idempotence")
    def _():
        for f in observables:
            assert f.is_projector
            assert f * f == f

    @suite.check("pairwise commutation (dense)")
    def _():
        import numpy as np  # only this check needs it; keeps CLI start-up light

        dense = np.zeros((count, size, size), dtype=np.int64)
        for i, f in enumerate(observables):
            np.fill_diagonal(dense[i], f.diagonal)
        products = np.einsum("iab,jbc->ijac", dense, dense)
        assert np.array_equal(products, products.transpose(1, 0, 2, 3))
        return f"{count * count} ordered pairs"

    @suite.check("rank-1 orthogonality and completeness")
    def _():
        projectors = [
            rank1_projector(Interpretation.from_index(n, k)) for k in range(size)
        ]
        total = DiagonalOperator.zero(n)
        for i, p in enumerate(projectors):
            assert p.is_projector and p.trace() == 1
            assert p.diagonal[i] == 1
            total = total + p
            for j, q in enumerate(projectors):
                expected = p if i == j else DiagonalOperator.zero(n)
                assert p * q == expected
        assert total == DiagonalOperator.identity(n)

    @suite.check("complement negation")
    def _():
        for tv, f in zip(tvs, observables):
            assert f.complement().diagonal == tv.complement().bits

    @suite.check("De Morgan complements")
    def _():
        if n < 2:
            return "not applicable below two arguments"
        for kind, dual in (
            (Connective.AND, Connective.NAND),
            (Connective.OR, Connective.NOR),
        ):
            base = multilinear.connective_poly(kind, n)
            assert base.complement() == multilinear.connective_poly(dual, n)
            assert (
                multilinear.to_truth_vector(base).complement()
                == multilinear.to_truth_vector(multilinear.connective_poly(dual, n))
            )

    @suite.check("polynomial-operator correspondence")
    def _():
        for tv, f in zip(tvs, observables):
            poly = multilinear.from_truth_vector(tv)
            assert multilinear.to_truth_vector(poly) == tv
            assert poly * poly == poly
            lifted = operators.lift_polynomial(poly)
            assert lifted == f
            assert _substitute_projectors(poly) == f
            assert lifted.diagonal == tv.bits

    @suite.check("projector sum/difference rules")
    def _():
        projectors = [
            rank1_projector(Interpretation.from_index(n, k)) for k in range(size)
        ]
        for i, p in enumerate(projectors):
            for j, q in enumerate(projectors):
                report = operators.von_neumann_check(p, q)
                assert report.commute
                assert report.sum_is_projector == (i != j)
                assert report.difference_is_projector == (i == j)

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
                assert operators.trace_select(obs, itp) == eval_formula(f, order, itp)

    return suite.results
