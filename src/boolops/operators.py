"""Diagonal operators on the 2**n-dimensional interpretation space.

Every operator of a fixed-arity family is diagonal in the canonical
basis, so only the diagonal is stored: entry k is the eigenvalue on the
basis vector of interpretation k.  An operator whose diagonal entries
are all 0/1 is an idempotent projector; read as a bit sequence, that
diagonal IS the truth vector of the proposition the projector encodes.

Dense matrices exist for display and for literally cross-checking the
commutation and Kronecker identities at small arity; all entries are
exact Python integers.
"""

from __future__ import annotations

from operator import index as _int

from ._value import Value
from .errors import (
    ArityCapError,
    ArityMismatchError,
    DenseCapError,
    DomainError,
    InvariantViolation,
)
from .multilinear import MultilinearPoly, values
from .truthtable import ARITY_CAP, Interpretation, TruthVector

#: Dense 2**n x 2**n export is refused above this arity by default.
DENSE_CAP = 6

DenseMatrix = tuple[tuple[int, ...], ...]


class DiagonalOperator(Value):
    """Integer diagonal operator; immutable and hashable."""

    __slots__ = __match_args__ = ("arity", "diagonal")

    def __init__(self, arity: int, diagonal):
        # operator.index keeps the entries exact: floats are rejected
        # instead of silently truncated.
        diagonal = tuple(map(int, map(_int, diagonal)))
        if arity < 0:
            raise DomainError(f"arity must be >= 0, got {arity}")
        if len(diagonal) != 1 << arity:
            raise DomainError(
                f"expected {1 << arity} diagonal entries for arity {arity}, "
                f"got {len(diagonal)}"
            )
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "diagonal", diagonal)

    @classmethod
    def identity(cls, arity: int) -> "DiagonalOperator":
        return cls._constant(arity, 1)

    @classmethod
    def zero(cls, arity: int) -> "DiagonalOperator":
        return cls._constant(arity, 0)

    @classmethod
    def _constant(cls, arity: int, value: int) -> "DiagonalOperator":
        if arity < 0:  # before 1 << arity, which refuses it as ValueError
            raise DomainError(f"arity must be >= 0, got {arity}")
        return cls(arity, (value,) * (1 << arity))

    @property
    def is_projector(self) -> bool:
        """True iff idempotent, i.e. every eigenvalue is 0 or 1."""
        return all(d in (0, 1) for d in self.diagonal)

    def _check_arity(self, other: "DiagonalOperator") -> None:
        if self.arity != other.arity:
            raise ArityMismatchError(
                f"cannot combine operators of arity {self.arity} and {other.arity}"
            )

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, DiagonalOperator):
            return NotImplemented
        self._check_arity(other)
        return DiagonalOperator(
            self.arity, tuple(a * b for a, b in zip(self.diagonal, other.diagonal))
        )

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, DiagonalOperator):
            return NotImplemented
        self._check_arity(other)
        return DiagonalOperator(
            self.arity, tuple(a + b for a, b in zip(self.diagonal, other.diagonal))
        )

    def __sub__(self, other):
        if not isinstance(other, DiagonalOperator):
            return NotImplemented
        self._check_arity(other)
        return DiagonalOperator(
            self.arity, tuple(a - b for a, b in zip(self.diagonal, other.diagonal))
        )

    def scale(self, factor: int) -> "DiagonalOperator":
        return DiagonalOperator(self.arity, tuple(factor * d for d in self.diagonal))

    def complement(self) -> "DiagonalOperator":
        """Identity minus self; negation when self is a projector."""
        return DiagonalOperator.identity(self.arity) - self

    def kron(self, other: "DiagonalOperator"):
        """Kronecker product; self supplies the most significant index block.
        Refuses arities above ``ARITY_CAP`` before allocating."""
        arity = self.arity + other.arity
        if arity > ARITY_CAP:
            raise ArityCapError(arity, ARITY_CAP)
        return DiagonalOperator(
            arity, tuple(a * b for a in self.diagonal for b in other.diagonal)
        )

    def trace(self) -> int:
        return sum(self.diagonal)

    def dense(self, *, dense_cap: int = DENSE_CAP) -> DenseMatrix:
        if self.arity > dense_cap:
            raise DenseCapError(self.arity, dense_cap)
        size = 1 << self.arity
        return tuple(
            tuple(self.diagonal[i] if i == j else 0 for j in range(size))
            for i in range(size)
        )

    def __str__(self):
        return "diag(" + ",".join(map(str, self.diagonal)) + ")"


def seed() -> DiagonalOperator:
    """Elementary 2x2 projector with diagonal (0, 1).

    Its complement has diagonal (1, 0); every projector of every arity is
    a combination of Kronecker products of these two.
    """
    return DiagonalOperator(1, (0, 1))


def rank1_projector(itp: Interpretation) -> DiagonalOperator:
    """Kronecker product over the assignment bits: the seed where the bit
    is 1, its complement where the bit is 0.  Exactly one diagonal entry
    is 1, at the row index of ``itp``."""
    if itp.arity < 1:
        raise DomainError("rank-1 projector requires arity >= 1")
    factors = [seed() if b else seed().complement() for b in itp.bits]
    op = factors[0]
    for factor in factors[1:]:
        op = op.kron(factor)
    return op


def logical_projector(arity: int, position: int) -> DiagonalOperator:
    """Projector of the atomic proposition at ``position``: identity
    factors everywhere except the seed at ``position``."""
    if not 0 <= position < arity:
        raise DomainError(
            f"projector position {position} out of range for arity {arity}"
        )
    op = seed() if position == 0 else DiagonalOperator.identity(1)
    for k in range(1, arity):
        op = op.kron(seed() if k == position else DiagonalOperator.identity(1))
    return op


def from_truth_vector(tv: TruthVector) -> DiagonalOperator:
    """Projector whose diagonal is the truth vector verbatim; equal to the
    truth-value-weighted sum of the rank-1 projectors."""
    return DiagonalOperator(tv.arity, tv.bits)


def lift_polynomial(p: MultilinearPoly) -> DiagonalOperator:
    """Substitute the logical projector for each variable of ``p``.

    The projectors are diagonal, so the result is ``p`` evaluated at every
    interpretation (the zeta transform, O(n * 2**n)); an interpretable
    polynomial lifts to the projector of its own truth vector.
    """
    return DiagonalOperator(p.arity, values(p))


def trace_select(f: DiagonalOperator, itp: Interpretation) -> int:
    """trace(f * rank-1 projector at itp): the eigenvalue of ``f`` on that
    interpretation, i.e. the truth value when ``f`` is a projector."""
    if f.arity != itp.arity:
        raise ArityMismatchError(
            f"operator arity {f.arity} != interpretation arity {itp.arity}"
        )
    if f.arity == 0:
        return f.diagonal[0]
    value = (f * rank1_projector(itp)).trace()
    if value != f.diagonal[itp.index]:
        raise InvariantViolation("trace selection disagrees with diagonal lookup")
    return value


class VonNeumannReport(Value):
    """Outcome of the projector sum/difference/product rules for one pair."""

    __slots__ = __match_args__ = (
        "commute",
        "sum_is_projector",
        "difference_is_projector",
    )

    def __init__(
        self, commute: bool, sum_is_projector: bool, difference_is_projector: bool
    ):
        object.__setattr__(self, "commute", commute)
        object.__setattr__(self, "sum_is_projector", sum_is_projector)
        object.__setattr__(self, "difference_is_projector", difference_is_projector)


def _matmul(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    size = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size))
        for i in range(size)
    )


def von_neumann_check(p: DiagonalOperator, q: DiagonalOperator) -> VonNeumannReport:
    """Check the classical projector rules on a pair of projectors:
    p + q is a projector iff p*q == 0, and p - q is a projector iff
    p*q == q.  Both directions of each equivalence are asserted;
    commutation is verified on literal dense matrices when the arity is
    within the dense cap."""
    p._check_arity(q)
    if not (p.is_projector and q.is_projector):
        raise DomainError("both operands must be projectors")
    if p.arity <= DENSE_CAP:
        dp, dq = p.dense(), q.dense()
        commute = _matmul(dp, dq) == _matmul(dq, dp)
    else:
        commute = p * q == q * p
    product = p * q
    sum_is_projector = (p + q).is_projector
    if sum_is_projector != (product == DiagonalOperator.zero(p.arity)):
        raise InvariantViolation("sum rule violated: p+q projector iff p*q == 0")
    difference_is_projector = (p - q).is_projector
    if difference_is_projector != (product == q):
        raise InvariantViolation("difference rule violated: p-q projector iff p*q == q")
    return VonNeumannReport(commute, sum_is_projector, difference_is_projector)


def kron_mixed_product_check(
    p: DiagonalOperator,
    q: DiagonalOperator,
    r: DiagonalOperator,
    s: DiagonalOperator,
) -> bool:
    """Assert (p (x) q) * (r (x) s) == (p*r) (x) (q*s); True on success."""
    if p.arity != r.arity or q.arity != s.arity:
        raise ArityMismatchError("mixed product requires p,r and q,s of equal arity")
    lhs = p.kron(q) * r.kron(s)
    rhs = (p * r).kron(q * s)
    if lhs != rhs:
        raise InvariantViolation("Kronecker mixed-product identity violated")
    return True
