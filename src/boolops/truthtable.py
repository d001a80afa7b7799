"""Formula evaluation, complete truth vectors, and the function index.

Row convention: the interpretation ``(a, b, ...)`` sits at row index with
the FIRST variable as the most significant bit, so ``(1, 0)`` is row 2.
The function index reads the truth vector the other way around: row 0 is
the least significant bit, which makes two-argument disjunction function
number 14.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .errors import (
    ArityCapError,
    ArityMismatchError,
    DomainError,
    UnboundVariableError,
)
from .formula import Algebra, App, Const, Formula, Not, Var, VariableOrder, variables

#: Enumerating a table above this arity (2**24 rows) is refused by default.
ARITY_CAP = 24


@dataclass(frozen=True, slots=True)
class Interpretation:
    """One assignment of truth values, one bit per variable position."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(self.bits)
        if any(b not in (0, 1) for b in bits):
            raise DomainError(f"assignment bits must be 0/1, got {bits!r}")
        object.__setattr__(self, "bits", tuple(int(b) for b in bits))

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


@dataclass(frozen=True, slots=True)
class TruthVector:
    """Complete truth table of an ``arity``-argument function, row order."""

    arity: int
    bits: tuple[int, ...] = field()

    def __post_init__(self):
        bits = tuple(self.bits)
        if self.arity < 0:
            raise DomainError(f"arity must be >= 0, got {self.arity}")
        if len(bits) != 1 << self.arity:
            raise DomainError(
                f"expected {1 << self.arity} rows for arity {self.arity}, "
                f"got {len(bits)}"
            )
        if any(b not in (0, 1) for b in bits):
            raise DomainError("truth vector entries must be 0 or 1")
        object.__setattr__(self, "bits", tuple(int(b) for b in bits))

    @classmethod
    def from_bits(cls, bits) -> "TruthVector":
        bits = tuple(int(b) for b in bits)
        n = len(bits).bit_length() - 1
        if len(bits) != 1 << n:
            raise DomainError(f"length {len(bits)} is not a power of two")
        return cls(n, bits)

    @classmethod
    def from_index(cls, arity: int, index: int) -> "TruthVector":
        """Inverse of :attr:`function_index`."""
        if arity < 0:
            raise DomainError(f"arity must be >= 0, got {arity}")
        if arity > ARITY_CAP:
            raise ArityCapError(arity, ARITY_CAP)
        rows = 1 << arity
        if index < 0 or index.bit_length() > rows:
            raise DomainError(
                f"function index {index} out of range for arity {arity}"
            )
        return cls(arity, tuple((index >> k) & 1 for k in range(rows)))

    @property
    def function_index(self) -> int:
        """Row 0 is the least significant bit of the function number."""
        return sum(b << k for k, b in enumerate(self.bits))

    def complement(self) -> "TruthVector":
        return TruthVector(self.arity, tuple(1 - b for b in self.bits))

    def __str__(self) -> str:
        return "".join(map(str, self.bits))


def _evaluate(f: Formula, columns: dict[str, int], full: int) -> int:
    """Value of ``f`` as a bitmask over the rows set in ``full``, given each
    variable's column of rows.  ``truth_vector`` passes every row at once,
    ``eval_formula`` a single row with one bit per variable."""
    algebra = Algebra(
        neg=lambda a: full ^ a, and_=int.__and__, or_=int.__or__, xor=int.__xor__
    )

    def ev(g: Formula) -> int:
        if isinstance(g, Const):
            return full if g.value else 0
        if isinstance(g, Var):
            try:
                return columns[g.name]
            except KeyError:
                raise UnboundVariableError(g.name) from None
        if isinstance(g, Not):
            return algebra.neg(ev(g.operand))
        assert isinstance(g, App)
        return algebra.apply(g.op, [ev(child) for child in g.operands])

    return ev(f)


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
    mask = _evaluate(f, columns, full)
    # Base-2 string conversion extracts all rows in linear time; shifting
    # the (possibly multi-megabit) mask once per row would be quadratic.
    text = format(mask, "b").zfill(1 << n)
    return TruthVector(n, tuple(int(ch) for ch in reversed(text)))
