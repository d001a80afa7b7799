import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

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
from boolops.multilinear import (
    MultilinearPoly,
    connective_poly,
    from_minterm_list,
    minterm_poly,
    select_cofactor,
)
from boolops.operators import DiagonalOperator, logical_projector, rank1_projector
from boolops.states import InterpretationState, basis_state, from_amplitudes
from boolops.truthtable import (
    ARITY_CAP,
    Interpretation,
    TruthVector,
    eval_formula,
    truth_vector,
)
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


def _zeros(n):
    return Interpretation((0,) * n)


#: Allocators of up to 2**n entries or monomials, each called at arity n.
CAPPED = {
    "DiagonalOperator.identity": DiagonalOperator.identity,
    "DiagonalOperator.zero": DiagonalOperator.zero,
    "basis_state": lambda n: basis_state(_zeros(n)),
    "minterm_poly": lambda n: minterm_poly(_zeros(n)),
    "select_cofactor": lambda n: select_cofactor(MultilinearPoly.one(n), _zeros(n)),
    "connective_poly OR": lambda n: connective_poly(Connective.OR, n),
    "connective_poly NOR": lambda n: connective_poly(Connective.NOR, n),
    "connective_poly XOR": lambda n: connective_poly(Connective.XOR, n),
    "rank1_projector": lambda n: rank1_projector(_zeros(n)),
    "logical_projector": lambda n: logical_projector(n, 0),
}


@pytest.mark.parametrize("n", [25, 40])
@pytest.mark.parametrize("name", list(CAPPED))
def test_allocators_refuse_above_the_cap_before_allocating(name, n):
    tracemalloc.start()
    try:
        with pytest.raises(ArityCapError) as info:
            CAPPED[name](n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.arity, info.value.cap) == (n, ARITY_CAP)
    assert str(info.value) == f"arity {n} exceeds the cap of {ARITY_CAP}"
    assert peak < 1 << 20


def test_and_and_nand_polynomials_take_any_arity():
    everything = frozenset(range(30))
    assert dict(connective_poly(Connective.AND, 30).coeffs) == {everything: 1}
    assert dict(connective_poly(Connective.NAND, 30).coeffs) == {
        frozenset(): 1,
        everything: -1,
    }


#: Constructors whose arity passes through the one gate, with whether they
#: allocate 2**n entries when the arity is legal.
GATED = {
    "TruthVector": (lambda n: TruthVector(n, (0, 1)), False),
    "TruthVector.from_index": (lambda n: TruthVector.from_index(n, 1), False),
    "Interpretation.from_index": (lambda n: Interpretation.from_index(n, 0), False),
    "MultilinearPoly": (lambda n: MultilinearPoly(n, {(): 1}), False),
    "DiagonalOperator": (lambda n: DiagonalOperator(n, (0, 1)), False),
    "InterpretationState": (lambda n: InterpretationState(n, (0, 1)), False),
    "from_amplitudes": (lambda n: from_amplitudes(n, (1, 1j)), False),
    "connective_poly AND": (lambda n: connective_poly(Connective.AND, n), False),
    "connective_poly NAND": (lambda n: connective_poly(Connective.NAND, n), False),
    **{name: (build, True) for name, build in CAPPED.items()},
    "from_minterm_list": (lambda n: from_minterm_list(n, [0]), True),
}


@given(st.sampled_from(sorted(GATED)), st.integers(-3, 60))
def test_gated_constructors_return_or_raise_a_domain_error(name, n):
    build, allocates = GATED[name]
    assume(not allocates or n <= 12 or n > ARITY_CAP)  # keep each example small
    try:
        build(n)
    except DomainError:
        pass


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
