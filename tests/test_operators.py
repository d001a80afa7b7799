import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolops.errors import (
    ArityCapError,
    ArityMismatchError,
    DenseCapError,
    DomainError,
    NonInterpretableError,
)
from boolops.multilinear import MultilinearPoly, from_truth_vector as poly_of
from boolops.multilinear import to_truth_vector
from boolops.operators import (
    DiagonalOperator,
    from_truth_vector,
    kron_mixed_product_check,
    lift_polynomial,
    logical_projector,
    rank1_projector,
    seed,
    trace_select,
    von_neumann_check,
)
from boolops.truthtable import Interpretation, TruthVector

I1 = DiagonalOperator.identity(1)
I2 = DiagonalOperator.identity(2)
A = logical_projector(2, 0)
B = logical_projector(2, 1)


def np_dense(op):
    return np.diag(np.array(op.diagonal, dtype=np.int64))


def test_seed_and_complement():
    assert seed().diagonal == (0, 1)
    assert seed().complement().diagonal == (1, 0)
    assert seed() * seed() == seed()


def test_kron_examples():
    assert seed().kron(I1).diagonal == (0, 0, 1, 1)
    assert I1.kron(seed()).diagonal == (0, 1, 0, 1)
    assert seed().kron(seed()).diagonal == (0, 0, 0, 1)


def test_kron_against_numpy():
    rng = random.Random(7)
    for _ in range(50):
        p = DiagonalOperator(2, [rng.randint(-4, 4) for _ in range(4)])
        q = DiagonalOperator(1, [rng.randint(-4, 4) for _ in range(2)])
        assert np.array_equal(np_dense(p.kron(q)), np.kron(np_dense(p), np_dense(q)))


def test_kron_arity_cap():
    # 12 + 13 > ARITY_CAP = 24: refused before the 2**25-entry product.
    with pytest.raises(ArityCapError):
        DiagonalOperator.zero(12).kron(DiagonalOperator.zero(13))


@pytest.mark.parametrize(
    "make", [DiagonalOperator.identity, DiagonalOperator.zero], ids=["identity", "zero"]
)
def test_negative_arity_is_a_domain_error(make):
    with pytest.raises(DomainError, match="arity must be >= 0, got -1"):
        make(-1)


def test_rank1_projector_examples():
    assert rank1_projector(Interpretation((0, 1))).diagonal == (0, 1, 0, 0)
    high = rank1_projector(Interpretation((1, 1, 1)))
    assert high.diagonal.index(1) == 7 and high.trace() == 1
    mid = rank1_projector(Interpretation((0, 1, 0)))
    assert mid.diagonal.index(1) == 2 and mid.trace() == 1


def test_rank1_requires_arguments():
    with pytest.raises(DomainError):
        rank1_projector(Interpretation(()))


def test_logical_projector_examples():
    assert logical_projector(3, 0).diagonal == (0, 0, 0, 0, 1, 1, 1, 1)
    assert logical_projector(3, 2).diagonal == (0, 1, 0, 1, 0, 1, 0, 1)
    assert logical_projector(1, 0) == seed()
    with pytest.raises(DomainError):
        logical_projector(3, 3)


def test_from_truth_vector_diagonal_verbatim():
    assert from_truth_vector(TruthVector(2, (0, 0, 0, 1))).diagonal == (0, 0, 0, 1)
    assert from_truth_vector(TruthVector(2, (1, 1, 0, 1))).diagonal == (1, 1, 0, 1)
    assert from_truth_vector(TruthVector(2, (0, 0, 0, 0))) == DiagonalOperator.zero(2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_from_truth_vector_equals_rank1_sum(n):
    projectors = [rank1_projector(Interpretation.from_index(n, k)) for k in range(1 << n)]
    for i in range(1 << (1 << n)):
        tv = TruthVector.from_index(n, i)
        total = DiagonalOperator.zero(n)
        for k, b in enumerate(tv.bits):
            total = total + b * projectors[k]
        assert total == from_truth_vector(tv)


def test_lift_polynomial_examples():
    x = MultilinearPoly.variable(2, 0)
    y = MultilinearPoly.variable(2, 1)
    assert lift_polynomial(x + y - x * y).diagonal == (0, 1, 1, 1)
    assert lift_polynomial(1 - x + x * y).diagonal == (1, 1, 0, 1)
    maj = poly_of(TruthVector(3, (0, 0, 0, 1, 0, 1, 1, 1)))
    assert lift_polynomial(maj).diagonal == (0, 0, 0, 1, 0, 1, 1, 1)


def test_lift_constant_polynomial():
    assert lift_polynomial(MultilinearPoly.constant(0, 1)).diagonal == (1,)


def test_lift_of_uninterpretable_polynomial_is_not_a_projector():
    x = MultilinearPoly.variable(2, 0)
    y = MultilinearPoly.variable(2, 1)
    lifted = lift_polynomial(x + y)
    assert lifted.diagonal == (0, 1, 1, 2)
    assert not lifted.is_projector


def literal_lift(p):
    """The paper's construction: each variable replaced by its logical
    projector, monomials as operator products, coefficients scaling the sum."""
    acc = DiagonalOperator.zero(p.arity)
    for positions, c in p.monomials():
        term = DiagonalOperator.identity(p.arity)
        for k in positions:
            term = term * logical_projector(p.arity, k)
        acc = acc + c * term
    return acc


def _polys_of_arity(n):
    subsets = st.frozensets(st.integers(0, n - 1)) if n else st.just(frozenset())
    arbitrary = st.dictionaries(subsets, st.integers(-3, 3), max_size=1 << n)
    interpretable = st.integers(0, (1 << (1 << n)) - 1)
    return st.one_of(
        arbitrary.map(lambda coeffs: MultilinearPoly(n, coeffs)),
        interpretable.map(lambda i: poly_of(TruthVector.from_index(n, i))),
    )


polys = st.integers(0, 6).flatmap(_polys_of_arity)


def _rows(n):
    return [Interpretation.from_index(n, k).bits for k in range(1 << n)]


@given(polys)
def test_lift_is_literal_substitution_and_pointwise_evaluation(p):
    diagonal = lift_polynomial(p).diagonal
    assert diagonal == literal_lift(p).diagonal
    assert diagonal == tuple(p.evaluate(bits) for bits in _rows(p.arity))


@given(polys)
def test_to_truth_vector_values_first_bad_row_and_round_trip(p):
    rows = _rows(p.arity)
    values = [p.evaluate(bits) for bits in rows]
    bad = [k for k, v in enumerate(values) if v not in (0, 1)]
    if bad:
        with pytest.raises(NonInterpretableError) as excinfo:
            to_truth_vector(p)
        assert excinfo.value.bits == rows[bad[0]]
        assert excinfo.value.value == values[bad[0]]
    else:
        tv = to_truth_vector(p)
        assert tv.bits == tuple(values)
        assert poly_of(tv) == p


def test_transforms_refuse_arity_above_cap_before_allocating():
    p = MultilinearPoly.variable(40, 0)
    for convert in (to_truth_vector, lift_polynomial):
        with pytest.raises(ArityCapError):
            convert(p)


def test_operator_arithmetic_examples():
    assert (A * B).diagonal == (0, 0, 0, 1)
    assert (I2 - A * B).diagonal == (1, 1, 1, 0)
    both = A + B
    assert both.diagonal == (0, 1, 1, 2)
    assert not both.is_projector
    assert (2 * (A * B)).diagonal == (0, 0, 0, 2)
    assert (A * B).scale(-1).diagonal == (0, 0, 0, -1)


def test_is_projector_examples():
    assert DiagonalOperator(2, (0, 1, 1, 0)).is_projector
    assert not DiagonalOperator(2, (0, 1, 1, 2)).is_projector
    assert DiagonalOperator.zero(3).is_projector


def test_complement_negates_projectors():
    for i in range(16):
        f = from_truth_vector(TruthVector.from_index(2, i))
        assert f.complement().diagonal == tuple(1 - d for d in f.diagonal)


@pytest.mark.parametrize("n", [1, 2])
def test_enumeration_counts(n):
    ops = {from_truth_vector(TruthVector.from_index(n, i)) for i in range(1 << (1 << n))}
    assert len(ops) == 1 << (1 << n)


def test_von_neumann_orthogonal_rank1_pair():
    report = von_neumann_check(
        rank1_projector(Interpretation((0, 1))),
        rank1_projector(Interpretation((1, 0))),
    )
    assert report.commute and report.sum_is_projector
    assert not report.difference_is_projector


def test_von_neumann_nested_pair():
    report = von_neumann_check(A, A * B)
    assert report.commute and report.difference_is_projector
    assert not report.sum_is_projector
    assert (A - A * B).diagonal == (0, 0, 1, 0)


def test_von_neumann_overlapping_pair():
    report = von_neumann_check(A, B)
    assert report.commute
    assert not report.sum_is_projector
    assert not report.difference_is_projector


def test_von_neumann_requires_projectors():
    with pytest.raises(DomainError):
        von_neumann_check(A + B, B)


def test_dense_examples():
    assert seed().dense() == ((0, 0), (0, 1))
    nor = from_truth_vector(TruthVector(2, (1, 0, 0, 0)))
    dense = nor.dense()
    assert dense[0][0] == 1 and sum(sum(row) for row in dense) == 1
    and3 = from_truth_vector(TruthVector(3, (0,) * 7 + (1,)))
    dense3 = and3.dense()
    assert len(dense3) == 8 and dense3[7][7] == 1
    assert sum(sum(row) for row in dense3) == 1


def test_dense_cap():
    wide = DiagonalOperator.zero(7)
    with pytest.raises(DenseCapError):
        wide.dense()
    assert len(wide.dense(dense_cap=7)) == 128


def test_kron_mixed_product_examples():
    pi = seed()
    assert kron_mixed_product_check(pi, I1, I1, pi)
    assert pi.kron(I1) * I1.kron(pi) == pi.kron(pi)
    assert kron_mixed_product_check(pi, pi, pi.complement(), pi.complement())
    assert pi.kron(pi) * pi.complement().kron(pi.complement()) == DiagonalOperator.zero(2)


def test_kron_mixed_product_random_against_numpy():
    rng = random.Random(11)
    for _ in range(200):
        na, nb = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        p, r = (
            DiagonalOperator(na, [rng.randint(-3, 3) for _ in range(1 << na)])
            for _ in range(2)
        )
        q, s = (
            DiagonalOperator(nb, [rng.randint(-3, 3) for _ in range(1 << nb)])
            for _ in range(2)
        )
        assert kron_mixed_product_check(p, q, r, s)
        lhs = np.kron(np_dense(p), np_dense(q)) @ np.kron(np_dense(r), np_dense(s))
        assert np.array_equal(lhs, np_dense(p.kron(q) * r.kron(s)))


def test_kron_mixed_product_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        kron_mixed_product_check(seed(), seed(), I2, seed())


def test_trace_select_examples():
    xor = from_truth_vector(TruthVector(2, (0, 1, 1, 0)))
    assert trace_select(xor, Interpretation((1, 0))) == 1
    assert trace_select(DiagonalOperator.zero(2), Interpretation((0, 1))) == 0
    maj = from_truth_vector(TruthVector(3, (0, 0, 0, 1, 0, 1, 1, 1)))
    assert trace_select(maj, Interpretation((0, 1, 1))) == 1


def test_trace_select_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        trace_select(seed(), Interpretation((1, 0)))


def test_pairwise_commutation_dense_all_two_argument_pairs():
    dense = np.stack(
        [np_dense(from_truth_vector(TruthVector.from_index(2, i))) for i in range(16)]
    )
    products = np.einsum("iab,jbc->ijac", dense, dense)
    assert np.array_equal(products, products.transpose(1, 0, 2, 3))


def test_diagonal_validation():
    with pytest.raises(DomainError):
        DiagonalOperator(2, (0, 1))
    with pytest.raises(ArityMismatchError):
        seed() + I2


def test_text_rendering():
    assert str(from_truth_vector(TruthVector(2, (1, 1, 0, 1)))) == "diag(1,1,0,1)"
