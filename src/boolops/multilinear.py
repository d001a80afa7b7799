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
from functools import cache
from itertools import compress, repeat
from operator import add, and_, index as _int, or_, rshift, sub
from types import MappingProxyType

from ._value import Value
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

    def __new__(cls, arity: int, coeffs: Mapping | Iterable = ()):
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
        return cls._of(arity, clean)

    @classmethod
    def _of(cls, arity: int, coeffs: dict) -> "MultilinearPoly":
        """Wrap ``coeffs`` unchecked and uncopied: frozenset keys within
        ``arity``, nonzero int values."""
        p = object.__new__(cls)
        object.__setattr__(p, "arity", arity)
        object.__setattr__(p, "coeffs", MappingProxyType(coeffs))
        return p

    def _immutable(self, *_):
        raise AttributeError("MultilinearPoly is immutable")

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return self.__class__, (self.arity, dict(self.coeffs))

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

    def monomials(self) -> list[tuple[tuple[int, ...], int]]:
        """Monomials as (sorted positions, coefficient), degree then
        position order."""
        positions = list(map(tuple, map(sorted, self.coeffs)))
        ranked = sorted(zip(map(len, positions), positions, self.coeffs.values()))
        return [(ps, c) for _, ps, c in ranked]

    def format(self, names=None) -> str:
        """Render like ``x + y - 2*x*y``; unit coefficients are omitted."""
        if names is None:
            names = default_names(self.arity)
        return format_terms(self.monomials(), names)

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


def format_terms(terms, names) -> str:
    """Render ``(positions, coefficient)`` pairs, in the order given, like
    ``x + y - 2*x*y``; unit coefficients are omitted."""
    parts = []
    for positions, c in terms:
        mag = abs(c)
        if not positions:
            body = str(mag)
        else:
            body = "*".join(map(names.__getitem__, positions))
            if mag != 1:
                body = f"{mag}*{body}"
        parts.append(f"+ {body}" if c > 0 else f"- {body}")
    if not parts:
        return "0"
    # The leading term carries its sign without the space.
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


# --------------------------------------------------------------------------
# Truth-vector conversions

@cache
def _subset_tables(arity: int) -> tuple[tuple[frozenset[int], ...], ...]:
    """For each byte of a row mask, lowest first, the position set of each
    of its values; row-index bit ``arity - 1 - p`` belongs to position p."""
    return tuple(
        tuple(
            frozenset(arity - 1 - low - j for j in range(8) if (v >> j) & 1)
            for v in range(1 << min(8, arity - low))
        )
        for low in range(0, max(arity, 1), 8)
    )


def _subsets_of_masks(masks: list[int], arity: int):
    """Position set of each row mask: one table lookup per mask byte,
    joined by set union."""
    tables = _subset_tables(arity)
    subsets = map(tables[0].__getitem__, map(and_, masks, repeat(0xFF)))
    for k, table in enumerate(tables[1:], 1):
        byte = map(and_, map(rshift, masks, repeat(8 * k)), repeat(0xFF))
        subsets = map(or_, subsets, map(table.__getitem__, byte))
    return subsets


def _mask_of_subset(subset: frozenset[int], arity: int) -> int:
    mask = 0
    for p in subset:
        mask |= 1 << (arity - 1 - p)
    return mask


def _butterfly(vals: list[int], sign: int) -> list[int]:
    """In place, ``vals[m]`` becomes the sum of ``sign**|m - s| * vals[s]``
    over the sub-masks ``s`` of row mask ``m`` (Yates 1937): the zeta
    transform (coefficients -> values) for ``sign = +1``, its inverse, the
    Moebius transform, for ``sign = -1``.  O(n * 2**n) additions."""
    combine = add if sign > 0 else sub
    half = len(vals) >> 1
    # Each round pairs rows across the top mask bit, then interleaves the
    # halves, rotating the mask bits left by one; after n rounds every bit
    # has been the top bit once and the row order is restored.
    for _ in range(half.bit_length()):
        lo = vals[:half]
        vals[1::2] = map(combine, vals[half:], lo)
        vals[0::2] = lo
    return vals


def from_truth_vector(tv: TruthVector, *, arity_cap: int = ARITY_CAP) -> MultilinearPoly:
    """Unique multilinear polynomial agreeing with ``tv`` on {0,1}**n.

    Computed by the in-place subset Moebius transform over the 2**n truth
    values, O(n * 2**n) instead of expanding every product term.
    """
    n = tv.arity
    if n > arity_cap:
        raise ArityCapError(n, arity_cap)
    vals = _butterfly(list(tv.bits), -1)
    masks = list(compress(range(len(vals)), vals))
    return MultilinearPoly._of(
        n, dict(zip(_subsets_of_masks(masks, n), filter(None, vals)))
    )


def values(p: MultilinearPoly) -> list[int]:
    """Value of ``p`` at every 0/1 point in row order: the zeta transform
    of its coefficients, O(n * 2**n), refused above ``ARITY_CAP``."""
    n = p.arity
    if n > ARITY_CAP:
        raise ArityCapError(n, ARITY_CAP)
    vals = [0] * (1 << n)
    for s, c in p.coeffs.items():
        vals[_mask_of_subset(s, n)] = c
    return _butterfly(vals, +1)


def to_truth_vector(p: MultilinearPoly) -> TruthVector:
    """Evaluate ``p`` at every 0/1 point, row order; left inverse of
    :func:`from_truth_vector`.

    Raises :class:`NonInterpretableError` naming the first interpretation
    (in row order) where the value falls outside {0, 1}.
    """
    n = p.arity
    vals = values(p)
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


def from_minterm_list(arity: int, minterms) -> MultilinearPoly:
    """Sum of the listed minterms, expanded.

    Minterms are pairwise orthogonal, so the plain integer sum equals the
    exclusive as well as the inclusive disjunction of the terms.
    """
    if arity < 1:
        raise DomainError("minterm list requires arity >= 1")
    if arity > ARITY_CAP:
        raise ArityCapError(arity, ARITY_CAP)
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
        return str(tv)
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

class LagrangeBasis(Value):
    """Interpolation basis polynomial: 1 at ``points[index]``, 0 at the
    other points.  ``coeffs`` are ascending-degree rational coefficients;
    the degree is one less than the number of points."""

    __slots__ = __match_args__ = ("points", "index", "coeffs")

    def __init__(
        self, points: tuple[Fraction, ...], index: int, coeffs: tuple[Fraction, ...]
    ):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x) -> Fraction:
        from fractions import Fraction  # loaded only by the rational bases

        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def lagrange_basis(points, index: int) -> LagrangeBasis:
    """Basis polynomial for ``points[index]`` over distinct rational points.

    For the points {0, 1} the two bases are exactly ``1 - x`` and ``x``.
    """
    from fractions import Fraction  # loaded only by the rational bases

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
