"""Value semantics of the immutable value classes, checked against frozen
slotted dataclasses built here from the same field names."""

import copy
import dataclasses
import pickle
from collections.abc import Mapping

import pytest

from boolops import multilinear, operators
from boolops.errors import ArityMismatchError, DomainError
from boolops.formula import (
    App,
    Connective,
    Const,
    Not,
    Var,
    VariableOrder,
    parse,
)
from boolops.multilinear import LagrangeBasis, MultilinearPoly, lagrange_basis
from boolops.operators import DiagonalOperator, VonNeumannReport
from boolops.states import InterpretationState, basis_state, from_amplitudes
from boolops.truthtable import Interpretation, TruthVector, truth_vector
from boolops.verify import CheckResult

X, Y = Var("x"), Var("y")
HALF = lagrange_basis([0, 1, 2], 1)

# (class, field names in declaration order, arguments, other arguments)
CASES = [
    (Const, ("value",), (1,), (0,)),
    (Var, ("name",), ("x",), ("y",)),
    (Not, ("operand",), (X,), (Y,)),
    (App, ("op", "operands"), (Connective.AND, (X, Const(1))),
     (Connective.OR, (X, Const(1)))),
    (VariableOrder, ("names",), (("x", "y"),), (("y", "x"),)),
    (Interpretation, ("bits",), ((1, 0, 1),), ((1, 0, 0),)),
    (TruthVector, ("arity", "bits"), (2, (0, 1, 1, 1)), (2, (0, 1, 1, 0))),
    (DiagonalOperator, ("arity", "diagonal"), (1, (0, 1)), (1, (1, 0))),
    (InterpretationState, ("arity", "amplitudes", "input_normalized"),
     (1, (0j, 1 + 0j), False), (1, (1 + 0j, 0j), False)),
    (VonNeumannReport, ("commute", "sum_is_projector", "difference_is_projector"),
     (True, False, True), (True, True, False)),
    (LagrangeBasis, ("points", "index", "coeffs"),
     (HALF.points, HALF.index, HALF.coeffs), (HALF.points, 0, HALF.coeffs)),
    (CheckResult, ("name", "passed", "detail"), ("enumeration", True, "4 functions"),
     ("enumeration", False, "4 functions")),
]
IDS = [case[0].__name__ for case in CASES]


def _reference(cls, fields):
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, slots=True)


@pytest.mark.parametrize("cls, fields, args, other", CASES, ids=IDS)
def test_equality_hash_repr_and_match_args_as_a_frozen_dataclass(
    cls, fields, args, other
):
    ref = _reference(cls, fields)
    a, b, c = cls(*args), cls(*args), cls(*other)
    ra, rb, rc = (ref(*(getattr(v, f) for f in fields)) for v in (a, b, c))
    assert cls.__match_args__ == ref.__match_args__ == fields
    assert repr(a) == repr(ra) and repr(c) == repr(rc)
    assert (a == b, a != b, a == c, a != c) == (ra == rb, ra != rb, ra == rc, ra != rc)
    assert (a == b, a == c) == (True, False)
    assert a != ra and a.__eq__(args) is NotImplemented
    assert hash(a) == hash(b)
    if cls not in (Not, App):  # inner nodes hash their pre-order walk instead
        assert hash(a) == hash(ra)
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("cls, fields, args, other", CASES, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(cls, fields, args, other):
    ref = _reference(cls, fields)
    for value in (cls(*args), ref(*args)):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
    # The reference is left out here: its generated __setattr__ raises
    # TypeError for a name that is not a field (a CPython slots defect).
    with pytest.raises(AttributeError):
        cls(*args).extra = 1


@pytest.mark.parametrize("cls, fields, args, other", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(cls, fields, args, other):
    a = cls(*args)
    for twin in (
        copy.copy(a),
        copy.deepcopy(a),
        *(pickle.loads(pickle.dumps(a, protocol)) for protocol in (0, 2, 5)),
    ):
        assert type(twin) is cls and twin == a and hash(twin) == hash(a)
        assert repr(twin) == repr(a)


def test_multilinear_poly_is_immutable_copyable_and_picklable():
    p = MultilinearPoly(2, {(0,): 1, (1,): 1, (0, 1): -2})
    for name in ("arity", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(p, name, getattr(p, name))
        with pytest.raises(AttributeError):
            delattr(p, name)
    for twin in (
        copy.copy(p),
        copy.deepcopy(p),
        *(pickle.loads(pickle.dumps(p, protocol)) for protocol in (0, 2, 5)),
    ):
        assert type(twin) is MultilinearPoly and twin == p and hash(twin) == hash(p)
        assert repr(twin) == repr(p) == "MultilinearPoly(2, 'x + y - 2*x*y')"


def test_match_statement_binds_fields_by_position():
    match TruthVector(1, (0, 1)):
        case TruthVector(arity, bits):
            assert (arity, bits) == (1, (0, 1))
    match parse("x & !y"):
        case App(Connective.AND, (Var(left), Not(Var(right)))):
            assert (left, right) == ("x", "y")
        case _:
            pytest.fail("pattern did not match")


def test_defaults_and_normalised_fields():
    assert CheckResult("a", True).detail == ""
    state = InterpretationState(1, [1, 0])
    assert state.input_normalized is True and state.amplitudes == (1 + 0j, 0j)
    assert App(Connective.OR, [X, Y]).operands == (X, Y)
    assert VariableOrder(["x", "y"]).names == ("x", "y")
    assert Interpretation([True, 0]).bits == (1, 0)
    assert type(Interpretation([True, 0]).bits[0]) is int


VALIDATION = [
    (lambda: Const(2), ValueError, "constant must be 0 or 1, got 2"),
    (lambda: Var("1x"), ValueError, "invalid variable name '1x'"),
    (lambda: Var(3), ValueError, "invalid variable name 3"),
    (lambda: Var("é"), ValueError, "invalid variable name 'é'"),  # ASCII only
    (lambda: Var("nand"), ValueError, "variable name 'nand' is a reserved word"),
    (lambda: App(Connective.IMPLIES, (X,)), ValueError,
     "IMPLIES takes exactly 2 operands, got 1"),
    (lambda: App(Connective.MAJ, (X, Y)), ValueError,
     "MAJ takes exactly 3 operands, got 2"),
    (lambda: App(Connective.AND, (X,)), ValueError,
     "AND takes at least 2 operands, got 1"),
    (lambda: Not(), TypeError, "Not takes the fields ('operand',)"),
    (lambda: Not(X, Y), TypeError, "Not takes the fields ('operand',)"),
    (lambda: VariableOrder(("x", "x")), ValueError,
     "duplicate variable names in ('x', 'x')"),
    (lambda: VariableOrder(("x", "T")), ValueError, "invalid variable name 'T'"),
    (lambda: VariableOrder(("x²",)), ValueError, "invalid variable name 'x²'"),
    (lambda: Interpretation((0, 2)), DomainError,
     "assignment bits must be 0/1, got (0, 2)"),
    (lambda: TruthVector(-1, ()), DomainError, "arity must be >= 0, got -1"),
    # A wrong entry count is an ArityMismatchError; the ids are the ones
    # these cases had when it was a plain DomainError.
    pytest.param(lambda: TruthVector(1, (0,)), ArityMismatchError,
                 "expected 2 rows for arity 1, got 1",
                 id="<lambda>-DomainError-expected 2 rows for arity 1, got 1"),
    (lambda: TruthVector(1, (0, 2)), DomainError, "truth vector entries must be 0 or 1"),
    (lambda: InterpretationState(1, (1,)), ArityMismatchError,
     "expected 2 amplitudes for arity 1, got 1"),
    (lambda: InterpretationState(1, (1, 1)), DomainError,
     "state amplitudes are not normalized"),
    pytest.param(lambda: DiagonalOperator(-1, ()), DomainError,
                 "arity must be >= 0, got -1",
                 id="DiagonalOperator-DomainError-arity must be >= 0, got -1"),
    pytest.param(lambda: DiagonalOperator(1, (0,)), ArityMismatchError,
                 "expected 2 diagonal entries for arity 1, got 1",
                 id="<lambda>-DomainError-expected 2 diagonal entries for arity 1, got 1"),
    (lambda: DiagonalOperator(1, (0, 1)).scale(1.5), TypeError,
     "'float' object cannot be interpreted as an integer"),
]


@pytest.mark.parametrize("build, error, message", VALIDATION)
def test_validation_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def _field_types(value):
    """The type of each slot and field of ``value``, with the types of its
    entries when it is a tuple, or of its keys and values when a mapping."""
    types = []
    for name in (*value.__slots__, *value.__match_args__):
        field = getattr(value, name)
        if isinstance(field, Mapping):
            entries = [*field, *field.values()]
        else:
            entries = field if isinstance(field, tuple) else ()
        types.append((name, type(field), set(map(type, entries))))
    return types


def test_computed_results_skip_the_public_constructors(monkeypatch):
    tv = TruthVector(2, (0, 1, 1, 1))
    p = MultilinearPoly(2, {(0,): 1, (1,): 1, (0, 1): -1})
    d, e = DiagonalOperator(1, (0, 1)), DiagonalOperator(1, (3, -2))
    itp = Interpretation((1, 0))
    routes = {
        "truth_vector": lambda: truth_vector(parse("x | y")),
        "TruthVector.from_index": lambda: TruthVector.from_index(2, 14),
        "TruthVector.complement": tv.complement,
        "Interpretation.from_index": lambda: Interpretation.from_index(3, 5),
        "operators.from_truth_vector": lambda: operators.from_truth_vector(tv),
        "lift_polynomial": lambda: operators.lift_polynomial(p),
        "DiagonalOperator *": lambda: d * e,
        "DiagonalOperator +": lambda: d + e,
        "DiagonalOperator -": lambda: d - e,
        "DiagonalOperator.kron": lambda: d.kron(e),
        "DiagonalOperator.identity": lambda: DiagonalOperator.identity(2),
        "DiagonalOperator.zero": lambda: DiagonalOperator.zero(2),
        "from_amplitudes": lambda: from_amplitudes(2, [1, 1j, (0, -2), 0.5]),
        "basis_state": lambda: basis_state(itp),
        "multilinear.from_truth_vector": lambda: multilinear.from_truth_vector(tv),
        "to_truth_vector": lambda: multilinear.to_truth_vector(p),
    }

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} re-validated a computed value")

    for cls in (TruthVector, Interpretation, DiagonalOperator, InterpretationState,
                MultilinearPoly):
        monkeypatch.setattr(cls, "__init__", refuse)
    results = {name: route() for name, route in routes.items()}
    monkeypatch.undo()
    for name, value in results.items():
        cls = type(value)
        twin = cls(*(getattr(value, field) for field in cls.__match_args__))
        assert twin == value and hash(twin) == hash(value), name
        assert _field_types(value) == _field_types(twin), name
