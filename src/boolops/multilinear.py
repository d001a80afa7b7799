"""Exact integer multilinear polynomial algebra over idempotent variables.

Variables satisfy x**2 == x, so every polynomial is multilinear: a map
from variable subsets (monomials) to signed integer coefficients.  A
polynomial is *interpretable* when it evaluates to 0 or 1 at every 0/1
point; interpretable polynomials are exactly the truth-vector images and
are the only ones :func:`to_truth_vector` accepts.  Non-interpretable
values such as ``x + y`` remain legal intermediates.

All arithmetic is exact: integer coefficients throughout, and
:class:`fractions.Fraction` for the univariate interpolation bases.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from operator import index as _int
from types import MappingProxyType

from .errors import (
    ArityCapError,
    ArityMismatchError,
    DomainError,
    InvariantViolation,
    NonInterpretableError,
)
from .formula import BINARY_ONLY, Algebra, Connective
from .truthtable import ARITY_CAP, Interpretation, TruthVector

#: Default variable names used when printing, matching the usual
#: four-argument tuple (x, y, z, r).
_DEFAULT_NAMES = ("x", "y", "z", "r")


def default_names(arity: int) -> tuple[str, ...]:
    if arity <= len(_DEFAULT_NAMES):
        return _DEFAULT_NAMES[:arity]
    return tuple(f"x{i}" for i in range(arity))


class MultilinearPoly:
    """Multilinear polynomial: arity plus a subset -> coefficient map.

    Zero coefficients are never stored, so equality of the coefficient
    maps is equality of polynomials (the multilinear representation of a
    function on {0,1}**n is unique).
    """

    __slots__ = ("arity", "coeffs")

    def __init__(self, arity: int, coeffs: Mapping | Iterable = ()):
        if arity < 0:
            raise DomainError(f"arity must be >= 0, got {arity}")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        clean: dict[frozenset[int], int] = {}
        for subset, c in items:
            subset = frozenset(subset)
            if any(not (0 <= v < arity) for v in subset):
                raise DomainError(
                    f"monomial {sorted(subset)} out of range for arity {arity}"
                )
            c = int(_int(c))  # exact: floats are rejected, not truncated
            if c:
                clean[subset] = clean.get(subset, 0) + c
                if not clean[subset]:
                    del clean[subset]
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "coeffs", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError("MultilinearPoly is immutable")

    # -- constructors

    @classmethod
    def zero(cls, arity: int) -> "MultilinearPoly":
        return cls(arity)

    @classmethod
    def constant(cls, arity: int, value: int) -> "MultilinearPoly":
        return cls(arity, {frozenset(): value})

    @classmethod
    def one(cls, arity: int) -> "MultilinearPoly":
        return cls.constant(arity, 1)

    @classmethod
    def variable(cls, arity: int, position: int) -> "MultilinearPoly":
        if not 0 <= position < arity:
            raise DomainError(f"variable position {position} out of range")
        return cls(arity, {frozenset({position}): 1})

    # -- ring operations (idempotent product)

    def _coerce(self, other) -> "tuple[MultilinearPoly, MultilinearPoly]":
        if isinstance(other, int):
            other = MultilinearPoly.constant(self.arity, other)
        elif not isinstance(other, MultilinearPoly):
            return NotImplemented
        if self.arity == other.arity:
            return self, other
        if self.arity == 0:
            return MultilinearPoly(other.arity, self.coeffs), other
        if other.arity == 0:
            return self, MultilinearPoly(self.arity, other.coeffs)
        raise ArityMismatchError(
            f"cannot combine polynomials of arity {self.arity} and {other.arity}"
        )

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        p, q = pair
        out = dict(p.coeffs)
        for s, c in q.coeffs.items():
            out[s] = out.get(s, 0) + c
        return MultilinearPoly(p.arity, out)

    __radd__ = __add__

    def __neg__(self):
        return MultilinearPoly(self.arity, {s: -c for s, c in self.coeffs.items()})

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        p, q = pair
        return p + (-q)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        p, q = pair
        # x*x == x: a monomial product is the union of the variable sets.
        out: dict[frozenset[int], int] = {}
        for s1, c1 in p.coeffs.items():
            for s2, c2 in q.coeffs.items():
                key = s1 | s2
                out[key] = out.get(key, 0) + c1 * c2
        return MultilinearPoly(p.arity, out)

    __rmul__ = __mul__

    def complement(self) -> "MultilinearPoly":
        """1 - p, the negation of an interpretable polynomial."""
        return 1 - self

    # -- queries

    def evaluate(self, bits) -> int:
        bits = tuple(bits)
        if len(bits) != self.arity:
            raise ArityMismatchError(
                f"expected {self.arity} bits, got {len(bits)}"
            )
        ones = {p for p, b in enumerate(bits) if b}
        return sum(c for s, c in self.coeffs.items() if s <= ones)

    def coefficient(self, subset) -> int:
        return self.coeffs.get(frozenset(subset), 0)

    def monomials(self):
        """Monomials as (sorted positions, coefficient), degree then
        position order."""
        for s in sorted(self.coeffs, key=lambda s: (len(s), sorted(s))):
            yield tuple(sorted(s)), self.coeffs[s]

    def format(self, names=None) -> str:
        """Render like ``x + y - 2*x*y``; unit coefficients are omitted."""
        if names is None:
            names = default_names(self.arity)
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for positions, c in self.monomials():
            mag = abs(c)
            if not positions:
                body = str(mag)
            else:
                body = "*".join(names[p] for p in positions)
                if mag != 1:
                    body = f"{mag}*{body}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, MultilinearPoly)
            and self.arity == other.arity
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.coeffs.items())))

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"MultilinearPoly({self.arity}, {self.format()!r})"


# --------------------------------------------------------------------------
# Truth-vector conversions

def _subset_of_mask(mask: int, arity: int) -> frozenset[int]:
    # Row-index bit (arity-1-p) belongs to variable position p.
    return frozenset(arity - 1 - j for j in range(arity) if (mask >> j) & 1)


def _mask_of_subset(subset: frozenset[int], arity: int) -> int:
    mask = 0
    for p in subset:
        mask |= 1 << (arity - 1 - p)
    return mask


def from_truth_vector(tv: TruthVector, *, arity_cap: int = ARITY_CAP) -> MultilinearPoly:
    """Unique multilinear polynomial agreeing with ``tv`` on {0,1}**n.

    Computed by the in-place subset Moebius transform over the 2**n truth
    values, O(n * 2**n) instead of expanding every product term.
    """
    n = tv.arity
    if n > arity_cap:
        raise ArityCapError(n, arity_cap)
    vals = list(tv.bits)
    size = 1 << n
    for j in range(n):
        bit = 1 << j
        for m in range(size):
            if m & bit:
                vals[m] -= vals[m ^ bit]
    return MultilinearPoly(
        n, {_subset_of_mask(m, n): c for m, c in enumerate(vals) if c}
    )


def to_truth_vector(p: MultilinearPoly) -> TruthVector:
    """Evaluate ``p`` at every 0/1 point, row order; left inverse of
    :func:`from_truth_vector`.

    Raises :class:`NonInterpretableError` naming the first interpretation
    (in row order) where the value falls outside {0, 1}.
    """
    n = p.arity
    size = 1 << n
    vals = [0] * size
    for s, c in p.coeffs.items():
        vals[_mask_of_subset(s, n)] += c
    for j in range(n):
        bit = 1 << j
        for m in range(size):
            if m & bit:
                vals[m] += vals[m ^ bit]
    for k, v in enumerate(vals):
        if v not in (0, 1):
            raise NonInterpretableError(Interpretation.from_index(n, k).bits, v)
    return TruthVector(n, tuple(vals))


def minterm_poly(itp: Interpretation) -> MultilinearPoly:
    """Expanded product over all variables of ``x`` (bit 1) or ``1 - x``
    (bit 0); evaluates to 1 exactly at ``itp``."""
    n = itp.arity
    if n < 1:
        raise DomainError("minterm requires arity >= 1")
    ones = frozenset(p for p, b in enumerate(itp.bits) if b)
    zeros = [p for p, b in enumerate(itp.bits) if not b]
    coeffs: dict[frozenset[int], int] = {}
    for mask in range(1 << len(zeros)):
        chosen = frozenset(zeros[i] for i in range(len(zeros)) if (mask >> i) & 1)
        sign = -1 if len(chosen) & 1 else 1
        coeffs[ones | chosen] = sign
    return MultilinearPoly(n, coeffs)


def from_minterm_list(arity: int, minterms, *, arity_cap: int = ARITY_CAP) -> MultilinearPoly:
    """Sum of the listed minterms, expanded.

    Minterms are pairwise orthogonal, so the plain integer sum equals the
    exclusive as well as the inclusive disjunction of the terms.
    """
    if arity < 1:
        raise DomainError("minterm list requires arity >= 1")
    if arity > arity_cap:
        raise ArityCapError(arity, arity_cap)
    acc = MultilinearPoly.zero(arity)
    for index in minterms:
        if not 0 <= index < (1 << arity):
            raise DomainError(f"minterm index {index} out of range for arity {arity}")
        acc = acc + minterm_poly(Interpretation.from_index(arity, index))
    return acc


def select_cofactor(p: MultilinearPoly, itp: Interpretation) -> int:
    """Coefficient of ``p`` on the minterm at ``itp``, i.e. p(itp).

    Computed twice: once by multiplying ``p`` with the minterm (which must
    collapse to value * minterm) and once by direct evaluation; the two
    routes must agree.
    """
    if p.arity != itp.arity:
        raise ArityMismatchError(
            f"polynomial arity {p.arity} != interpretation arity {itp.arity}"
        )
    pi = minterm_poly(itp)
    value = p.evaluate(itp.bits)
    if p * pi != value * pi:
        raise InvariantViolation(
            f"minterm selection disagrees with evaluation at {itp}"
        )
    return value


#: Boole's arithmetic on idempotent 0/1 variables.
_POLY_ALGEBRA = Algebra(
    neg=lambda a: 1 - a,
    and_=lambda a, b: a * b,
    or_=lambda a, b: a + b - a * b,
    xor=lambda a, b: a + b - 2 * (a * b),
)


def connective_poly(kind: Connective, arity: int) -> MultilinearPoly:
    """Direct arithmetic form of a symmetric connective.

    Applies the connective's definition to the variables, reading ``neg``,
    ``and``, ``or`` and ``xor`` as ``1 - a``, ``a*b``, ``a + b - a*b`` and
    ``a + b - 2*a*b``.  MAJ is defined for exactly three arguments.
    """
    if kind is Connective.MAJ and arity != 3:
        raise DomainError("MAJ is only defined for arity 3")
    if arity < 2:
        raise DomainError(f"{kind.name} requires arity >= 2")
    if kind in BINARY_ONLY:
        raise DomainError(f"no direct arithmetic form for {kind.name}")
    xs = [MultilinearPoly.variable(arity, k) for k in range(arity)]
    return _POLY_ALGEBRA.apply(kind, xs)


def format_canonical(tv: TruthVector, names=None) -> str:
    """Minterm-sum rendering of a truth vector, e.g. ``(1-x)*y + x*(1-y)``."""
    if names is None:
        names = default_names(tv.arity)
    if tv.arity == 0:
        return str(tv.bits[0])
    terms = []
    for k, b in enumerate(tv.bits):
        if not b:
            continue
        itp = Interpretation.from_index(tv.arity, k)
        terms.append(
            "*".join(
                names[p] if bit else f"(1-{names[p]})"
                for p, bit in enumerate(itp.bits)
            )
        )
    return " + ".join(terms) if terms else "0"


# --------------------------------------------------------------------------
# Univariate interpolation bases

@dataclass(frozen=True, slots=True)
class LagrangeBasis:
    """Interpolation basis polynomial: 1 at ``points[index]``, 0 at the
    other points.  ``coeffs`` are ascending-degree rational coefficients;
    the degree is one less than the number of points."""

    points: tuple[Fraction, ...]
    index: int
    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def lagrange_basis(points, index: int) -> LagrangeBasis:
    """Basis polynomial for ``points[index]`` over distinct rational points.

    For the points {0, 1} the two bases are exactly ``1 - x`` and ``x``.
    """
    pts = tuple(Fraction(p) for p in points)
    if len(set(pts)) != len(pts):
        raise DomainError(f"interpolation points must be distinct, got {points!r}")
    if not 0 <= index < len(pts):
        raise DomainError(f"basis index {index} out of range for {len(pts)} points")
    num = [Fraction(1)]
    denom = Fraction(1)
    for j, xj in enumerate(pts):
        if j == index:
            continue
        # Multiply the accumulated numerator by (x - xj).
        num = [Fraction(0)] + num
        for k in range(len(num) - 1):
            num[k] -= xj * num[k + 1]
        denom *= pts[index] - xj
    return LagrangeBasis(pts, index, tuple(c / denom for c in num))
