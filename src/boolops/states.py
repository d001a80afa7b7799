"""Interpretation states: basis vectors and fuzzy superpositions.

A state is a normalized complex amplitude vector over the canonical
interpretation basis.  The basis vector of the one-argument assignment
``1`` has its unit entry in the SECOND component, so the basis vector of
any interpretation sits at that interpretation's row index.
"""

from __future__ import annotations

import cmath
import math
from operator import attrgetter

from ._value import Value
from .errors import DomainError
from .operators import DiagonalOperator, trace_select
from .truthtable import ARITY_CAP, Interpretation, _check_entries, _rows, _same_arity

NORM_TOL = 1e-9
#: Inputs whose norm is within this of 1 count as already normalized.
INPUT_NORM_TOL = 1e-6

_real, _imag = attrgetter("real"), attrgetter("imag")


class InterpretationState(Value):
    """Normalized amplitudes over the 2**arity interpretation basis.

    ``input_normalized`` records whether the amplitudes this state was
    built from already had unit norm.
    """

    __slots__ = __match_args__ = ("arity", "amplitudes", "input_normalized")

    def __init__(
        self,
        arity: int,
        amplitudes: tuple[complex, ...],
        input_normalized: bool = True,
    ):
        amplitudes = tuple(map(complex, amplitudes))
        _check_entries(arity, amplitudes, "amplitudes")
        Value.__init__(self, arity, amplitudes, input_normalized)
        if abs(self.norm_squared() - 1.0) > NORM_TOL:
            raise DomainError("state amplitudes are not normalized")

    def norm_squared(self) -> float:
        return sum(a.real * a.real + a.imag * a.imag for a in self.amplitudes)


def basis_state(itp: Interpretation) -> InterpretationState:
    """Crisp state: amplitude 1 at the row index of ``itp``, 0 elsewhere."""
    amps = [0j] * _rows(itp.arity, ARITY_CAP)
    amps[itp.index] = 1 + 0j
    return InterpretationState._of(itp.arity, tuple(amps), True)


def _as_complex(item) -> complex:
    if isinstance(item, (tuple, list)) and len(item) == 2:
        return complex(item[0], item[1])
    return complex(item)


def from_amplitudes(arity: int, amplitudes) -> InterpretationState:
    """Normalized state from raw amplitudes.

    Items may be complex numbers, reals, or (real, imaginary) pairs.
    Raises on a zero vector, a non-finite component or a length other
    than 2**arity.
    """
    items = tuple(amplitudes)
    try:
        amps = tuple(map(complex, items))
    except TypeError:  # (real, imaginary) pairs among the items
        amps = tuple(map(_as_complex, items))
    _check_entries(arity, amps, "amplitudes")
    if not all(map(cmath.isfinite, amps)):
        raise DomainError("amplitudes must be finite")
    # Rescale by the largest component before normalizing so that even
    # subnormal inputs divide safely.
    scale = max(max(map(abs, map(_real, amps))), max(map(abs, map(_imag, amps))))
    if scale == 0.0:
        raise DomainError("amplitude vector has zero norm")
    scaled = tuple(a / scale for a in amps)
    norm = math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in scaled))
    return InterpretationState._of(
        arity,
        tuple(a / norm for a in scaled),
        abs(norm * scale - 1.0) <= INPUT_NORM_TOL,
    )


def expectation(f: DiagonalOperator, state: InterpretationState) -> float:
    """Mean eigenvalue of ``f`` in ``state``: the squared-magnitude-weighted
    sum of the diagonal.  For a projector this is a fuzzy truth value in
    [0, 1]; on a basis state it is the crisp truth value."""
    _same_arity(f.arity, "operator", state.arity, "state")
    return sum(
        (a.real * a.real + a.imag * a.imag) * d
        for a, d in zip(state.amplitudes, f.diagonal)
    )


def is_model(f: DiagonalOperator, itp: Interpretation) -> bool:
    """True iff the proposition encoded by projector ``f`` is satisfied at
    ``itp``."""
    if not f.is_projector:
        raise DomainError("is_model requires a projector")
    return trace_select(f, itp) == 1
