"""Formula evaluation, complete truth vectors, and the function index.

Row convention: the interpretation ``(a, b, ...)`` sits at row index with
the FIRST variable as the most significant bit, so ``(1, 0)`` is row 2.
The function index reads the truth vector the other way around: row 0 is
the least significant bit, which makes two-argument disjunction function
number 14.
"""

from __future__ import annotations

from functools import reduce
from operator import index as _int

from ._value import Value
from .errors import (
    ArityCapError,
    ArityMismatchError,
    DomainError,
    UnboundVariableError,
)
from .formula import Algebra, App, Formula, Not, Var, VariableOrder, postorder, variables

#: Enumerating a table above this arity (2**24 rows) is refused by default.
ARITY_CAP = 24

_BITS = frozenset((0, 1))
#: ``bytes.translate`` tables between the ASCII digits 0/1 and the bytes 0/1.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_DIGIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _bits_valid(bits: tuple) -> bool:
    """Every entry equals 0 or 1 (so ``True`` and ``1.0`` do too)."""
    try:
        return _BITS.issuperset(bits)
    except TypeError:  # an unhashable entry: compare one by one
        return all(b in (0, 1) for b in bits)


class Interpretation(Value):
    """One assignment of truth values, one bit per variable position."""

    __slots__ = __match_args__ = ("bits",)

    def __init__(self, bits: tuple[int, ...]):
        bits = tuple(bits)
        if not _bits_valid(bits):
            raise DomainError(f"assignment bits must be 0/1, got {bits!r}")
        object.__setattr__(self, "bits", tuple(map(int, bits)))

    @classmethod
    def from_index(cls, arity: int, index: int) -> "Interpretation":
        if arity < 0:
            raise DomainError(f"arity must be >= 0, got {arity}")
        if not 0 <= index < (1 << arity):
            raise DomainError(f"row index {index} out of range for arity {arity}")
        return cls(tuple((index >> (arity - 1 - p)) & 1 for p in range(arity)))

    @property
    def arity(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        """Row index of this assignment, first bit most significant."""
        return reduce(lambda acc, b: (acc << 1) | b, self.bits, 0)

    def __str__(self) -> str:
        return "".join(map(str, self.bits))


class TruthVector(Value):
    """Complete truth table of an ``arity``-argument function, stored as its
    function index: row k of the table is bit k of ``function_index``."""

    __slots__ = ("arity", "function_index")
    __match_args__ = ("arity", "bits")

    def __init__(self, arity: int, bits: tuple[int, ...]):
        bits = tuple(bits)
        if arity < 0:
            raise DomainError(f"arity must be >= 0, got {arity}")
        if len(bits) != 1 << arity:
            raise DomainError(
                f"expected {1 << arity} rows for arity {arity}, got {len(bits)}"
            )
        if not _bits_valid(bits):
            raise DomainError("truth vector entries must be 0 or 1")
        # Base-2 text packs and unpacks all rows in linear time; shifting a
        # (possibly multi-megabit) mask once per row would be quadratic.
        text = bytes(map(int, bits)).translate(_DIGIT_CHARS)[::-1]
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "function_index", int(text, 2))

    @classmethod
    def _of(cls, arity: int, index: int) -> "TruthVector":
        """Wrap ``index`` unchecked: an int with 0 <= index < 2**2**arity."""
        tv = object.__new__(cls)
        object.__setattr__(tv, "arity", arity)
        object.__setattr__(tv, "function_index", index)
        return tv

    @classmethod
    def from_bits(cls, bits) -> "TruthVector":
        """Truth vector of the 2**n entries ``bits``, e.g. the string
        ``"0111"``; digit strings become ints, other entries are checked
        as given."""
        bits = tuple(int(b) if isinstance(b, str) else b for b in bits)
        n = len(bits).bit_length() - 1
        if n < 0 or len(bits) != 1 << n:
            raise DomainError(f"length {len(bits)} is not a power of two")
        return cls(n, bits)

    @classmethod
    def from_index(cls, arity: int, index: int) -> "TruthVector":
        """Truth vector whose :attr:`function_index` is ``index``."""
        if arity < 0:
            raise DomainError(f"arity must be >= 0, got {arity}")
        if arity > ARITY_CAP:
            raise ArityCapError(arity, ARITY_CAP)
        index = int(_int(index))  # exact: floats are rejected, not truncated
        if index < 0 or index.bit_length() > 1 << arity:
            raise DomainError(
                f"function index {index} out of range for arity {arity}"
            )
        return cls._of(arity, index)

    @property
    def bits(self) -> tuple[int, ...]:
        """The 2**arity rows as 0/1 ints, unpacked afresh on every read."""
        return tuple(str(self).encode("ascii").translate(_DIGIT_VALUES))

    def complement(self) -> "TruthVector":
        full = (1 << (1 << self.arity)) - 1
        return TruthVector._of(self.arity, full ^ self.function_index)

    def __str__(self) -> str:
        return format(self.function_index, "b").zfill(1 << self.arity)[::-1]


def _evaluate(f: Formula, columns: dict[str, int], full: int) -> int:
    """Value of ``f`` as a bitmask over the rows set in ``full``, given each
    variable's column of rows.  ``truth_vector`` passes every row at once,
    ``eval_formula`` a single row with one bit per variable."""
    algebra = Algebra(
        neg=lambda a: full ^ a, and_=int.__and__, or_=int.__or__, xor=int.__xor__
    )
    values: list[int] = []  # one per finished subtree, leftmost first
    for g in postorder(f):
        if g.__class__ is App:
            k = len(g.operands)
            args = values[-k:]
            del values[-k:]
            values.append(algebra.apply(g.op, args))
        elif g.__class__ is Not:
            values.append(algebra.neg(values.pop()))
        elif g.__class__ is Var:
            try:
                values.append(columns[g.name])
            except KeyError:
                raise UnboundVariableError(g.name) from None
        else:
            values.append(full if g.value else 0)
    return values.pop()


def eval_formula(f: Formula, order: VariableOrder, itp: Interpretation) -> int:
    """Classical truth value of ``f`` under one assignment, as 0 or 1."""
    if itp.arity != len(order):
        raise ArityMismatchError(
            f"assignment has {itp.arity} bits, variable order has {len(order)}"
        )
    return _evaluate(f, dict(zip(order.names, itp.bits)), 1)


def _column_mask(position: int, arity: int) -> int:
    """Bitmask over all 2**arity rows where the given variable is 1."""
    s = arity - 1 - position  # bit of the row index owned by this variable
    half = 1 << s
    mask = ((1 << half) - 1) << half  # one period: `half` zeros, `half` ones
    width = half * 2
    total = 1 << arity
    while width < total:
        mask |= mask << width
        width *= 2
    return mask


def truth_vector(
    f: Formula, order: VariableOrder | None = None, *, arity_cap: int = ARITY_CAP
) -> TruthVector:
    """Evaluate ``f`` on every interpretation over ``order``.

    Columns are computed as integer bitmasks over all rows at once, one
    bitwise operation per node.
    """
    if order is None:
        order = variables(f)
    n = len(order)
    if n > arity_cap:
        raise ArityCapError(n, arity_cap)
    full = (1 << (1 << n)) - 1
    columns = {name: _column_mask(p, n) for p, name in enumerate(order.names)}
    return TruthVector._of(n, _evaluate(f, columns, full))
