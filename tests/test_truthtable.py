import tracemalloc

import numpy as np
import pytest
from hypothesis import given

from boolops.errors import (
    ArityCapError,
    ArityMismatchError,
    DomainError,
    UnboundVariableError,
)
from boolops.formula import (
    BINARY_ONLY,
    App,
    Connective,
    Const,
    Var,
    VariableOrder,
    format_formula,
    parse,
    variables,
)
from boolops.truthtable import Interpretation, TruthVector, eval_formula, truth_vector
from conftest import NAMES, formulas

XY = VariableOrder(("x", "y"))
XYZ = VariableOrder(("x", "y", "z"))


def test_eval_xor_true_true():
    assert eval_formula(parse("x ^ y"), XY, Interpretation((1, 1))) == 0


def test_eval_implies_true_false():
    assert eval_formula(parse("x -> y"), XY, Interpretation((1, 0))) == 0


#: Textbook truth functions, kept apart from the connective table they check.
REFERENCE = {
    Connective.AND: all,
    Connective.OR: any,
    Connective.XOR: lambda v: sum(v) % 2,
    Connective.NAND: lambda v: not all(v),
    Connective.NOR: lambda v: not any(v),
    Connective.IMPLIES: lambda v: v[0] <= v[1],
    Connective.CONVERSE_IMPLIES: lambda v: v[0] >= v[1],
    Connective.NON_IMPLIES: lambda v: v[0] > v[1],
    Connective.CONVERSE_NON_IMPLIES: lambda v: v[0] < v[1],
    Connective.EQUIV: lambda v: v[0] == v[1],
    Connective.MAJ: lambda v: sum(v) >= 2,
}


@pytest.mark.parametrize("op", list(Connective))
def test_connective_table_matches_reference(op):
    if op in BINARY_ONLY:
        arities = (2,)
    elif op is Connective.MAJ:
        arities = (3,)
    else:
        arities = (2, 3, 4)
    for k in arities:
        order = VariableOrder(tuple(f"v{i}" for i in range(k)))
        f = App(op, tuple(Var(name) for name in order))
        tv = truth_vector(f, order)
        for row in range(1 << k):
            itp = Interpretation.from_index(k, row)
            want = int(REFERENCE[op](itp.bits))
            assert eval_formula(f, order, itp) == tv.bits[row] == want


def test_eval_majority():
    f = parse("maj(x, y, z)")
    assert eval_formula(f, XYZ, Interpretation((1, 0, 1))) == 1
    assert truth_vector(f, XYZ).bits == (0, 0, 0, 1, 0, 1, 1, 1)


def test_truth_vector_or():
    assert truth_vector(parse("x | y"), XY).bits == (0, 1, 1, 1)


def test_truth_vector_nor():
    assert truth_vector(parse("x nor y"), XY).bits == (1, 0, 0, 0)


def test_truth_vector_constant_over_declared_variable():
    assert truth_vector(Const(1), VariableOrder(("x",))).bits == (1, 1)


def test_truth_vector_constant_formula_is_single_row():
    tv = truth_vector(Const(0))
    assert tv.arity == 0 and tv.bits == (0,)


def test_function_index_examples():
    assert TruthVector(2, (0, 1, 1, 1)).function_index == 14
    assert TruthVector(2, (0, 1, 1, 0)).function_index == 6
    assert TruthVector(2, (0, 0, 0, 0)).function_index == 0


def test_from_index_examples():
    assert TruthVector.from_index(2, 8).bits == (0, 0, 0, 1)
    assert TruthVector.from_index(1, 2).bits == (0, 1)
    assert TruthVector.from_index(2, 15).bits == (1, 1, 1, 1)


def test_from_index_range_check():
    with pytest.raises(DomainError):
        TruthVector.from_index(1, 16)
    with pytest.raises(DomainError):
        TruthVector.from_index(2, -1)


@pytest.mark.parametrize("n,count", [(1, 4), (2, 16), (3, 256)])
def test_index_bijection_exhaustive(n, count):
    seen = {TruthVector.from_index(n, i).function_index for i in range(count)}
    assert seen == set(range(count))
    for i in range(count):
        tv = TruthVector.from_index(n, i)
        bits = tv.bits
        assert len(bits) == 1 << n and set(bits) <= {0, 1}
        assert TruthVector(n, bits) == tv
        assert tv.function_index == sum(b << k for k, b in enumerate(bits))
        assert str(tv) == "".join(map(str, bits))
        assert tv.complement().bits == tuple(1 - b for b in bits)


def test_from_index_reads_an_exact_integer():
    with pytest.raises(TypeError):
        TruthVector.from_index(2, 1.0)
    wide = TruthVector.from_index(2, np.int64(14))
    assert wide == TruthVector.from_index(2, 14)
    assert type(wide.function_index) is int


def test_from_index_builds_no_row_sequence():
    index = (1 << (1 << 24)) - 1  # every row of a 24-argument table set
    tracemalloc.start()
    try:
        tv = TruthVector.from_index(24, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tv.function_index == index and peak < 8 << 20


def test_de_morgan_at_table_level():
    nand = truth_vector(parse("x nand y"), XY)
    conj = truth_vector(parse("x & y"), XY)
    assert nand == conj.complement()


def test_interpretation_row_convention():
    # First variable is the most significant bit.
    assert Interpretation((1, 0)).index == 2
    assert Interpretation.from_index(3, 5).bits == (1, 0, 1)
    assert str(Interpretation((0, 1, 1))) == "011"


def test_interpretation_validation():
    with pytest.raises(DomainError):
        Interpretation((0, 2))
    with pytest.raises(DomainError):
        Interpretation.from_index(2, 4)


def test_unbound_variable_is_named():
    with pytest.raises(UnboundVariableError) as excinfo:
        eval_formula(parse("x & q"), XY, Interpretation((1, 1)))
    assert excinfo.value.name == "q"
    with pytest.raises(UnboundVariableError):
        truth_vector(parse("x & q"), XY)


def test_assignment_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        eval_formula(parse("x & y"), XY, Interpretation((1,)))


def test_arity_cap():
    wide = parse(" | ".join(f"v{i}" for i in range(25)))
    with pytest.raises(ArityCapError):
        truth_vector(wide)
    # The cap is configurable in both directions.
    three = parse("a & b & c")
    with pytest.raises(ArityCapError):
        truth_vector(three, arity_cap=2)
    assert truth_vector(three, arity_cap=3).function_index == 1 << 7


def test_truth_vector_serialization():
    assert str(truth_vector(parse("x | y"), XY)) == "0111"
    assert TruthVector.from_bits("0111").function_index == 14


def test_from_bits_rejects_non_power_of_two():
    with pytest.raises(DomainError):
        TruthVector.from_bits((0, 1, 1))


@pytest.mark.parametrize("bits", [[], ""], ids=["list", "str"])
def test_from_bits_of_no_rows_is_a_domain_error(bits):
    with pytest.raises(DomainError, match="length 0 is not a power of two"):
        TruthVector.from_bits(bits)


def test_from_bits_checks_entries_as_the_constructor_does():
    # Only digit strings are converted; a fraction is rejected, not truncated.
    for bits in ([1.5, 0], (0, 1, 1, 2), "0102"):
        with pytest.raises(DomainError):
            TruthVector.from_bits(bits)
    with pytest.raises(DomainError):
        TruthVector(1, [1.5, 0])
    assert TruthVector.from_bits("0111").function_index == 14
    assert TruthVector.from_bits(["0", "1"]) == TruthVector.from_bits([0, True])


@given(formulas(kary_duals=True))
def test_eval_agrees_with_truth_vector_rows(f):
    order = variables(f)
    tv = truth_vector(f, order)
    for k in range(1 << len(order)):
        itp = Interpretation.from_index(len(order), k)
        assert eval_formula(f, order, itp) == tv.bits[k]


@given(formulas(kary_duals=True))
def test_formatting_preserves_semantics(f):
    order = VariableOrder(NAMES)
    assert truth_vector(parse(format_formula(f)), order) == truth_vector(f, order)


def test_truth_vector_padded_order():
    # Unused variables double the table without changing values.
    tv = truth_vector(Var("y"), XY)
    assert tv.bits == (0, 1, 0, 1)
