"""The row and coefficient conversions: what each constructor accepts,
normalises and rejects, and the interpolation's mask -> subset tables."""

import random

import numpy as np
import pytest

from boolops.errors import DomainError
from boolops.multilinear import MultilinearPoly, _butterfly, from_truth_vector
from boolops.operators import DiagonalOperator
from boolops.truthtable import TruthVector

# entry -> (TruthVector row, DiagonalOperator entry, MultilinearPoly
# coefficient): the normalised int, or the exception type raised.
ENTRIES = [
    (True, 1, 1, 1),
    (1.0, 1, TypeError, TypeError),
    (1.5, DomainError, TypeError, TypeError),
    (2, DomainError, 2, 2),
    (-1, DomainError, -1, -1),
    ("1", DomainError, TypeError, TypeError),
    (None, DomainError, TypeError, TypeError),
    ([1], DomainError, TypeError, TypeError),
    # Unhashable, so a set cannot hold them; the first equals 1.
    (np.array(1), 1, 1, 1),
    (np.array([1]), TypeError, TypeError, TypeError),
]


def _outcome(build, read):
    try:
        value = read(build())
    except Exception as exc:
        return type(exc)
    assert type(value) is int  # normalised, never kept as bool or float
    return value


@pytest.mark.parametrize(
    "entry, row, diagonal, coefficient", ENTRIES, ids=[repr(e[0]) for e in ENTRIES]
)
def test_constructors_accept_normalise_or_reject(entry, row, diagonal, coefficient):
    # The entry sits among ordinary ones, where a per-entry check would see it.
    assert _outcome(lambda: TruthVector(2, (0, entry, 1, 0)), lambda t: t.bits[1]) == row
    assert (
        _outcome(lambda: DiagonalOperator(1, (3, entry)), lambda d: d.diagonal[1])
        == diagonal
    )
    assert (
        _outcome(
            lambda: MultilinearPoly(2, {frozenset({0}): 1, frozenset({1}): entry}),
            lambda p: p.coefficient({1}),
        )
        == coefficient
    )


def _reference_poly(bits):
    """The Moebius transform, each row mask turned into its positions one
    bit at a time and passed through the validating constructor."""
    n = len(bits).bit_length() - 1
    vals = _butterfly(list(bits), -1)
    return MultilinearPoly(
        n,
        {
            frozenset(n - 1 - j for j in range(n) if (m >> j) & 1): c
            for m, c in enumerate(vals)
            if c
        },
    )


@pytest.mark.parametrize("n", range(11))
def test_from_truth_vector_matches_reference(n):
    # Arity 8 needs one byte table, 9 and 10 two.
    rng = random.Random(n)
    for _ in range(5):
        tv = TruthVector(n, tuple(rng.randint(0, 1) for _ in range(1 << n)))
        p = from_truth_vector(tv)
        assert p == _reference_poly(tv.bits)
        assert all(type(s) is frozenset for s in p.coeffs)


def test_from_truth_vector_reads_the_third_mask_byte():
    n = 17
    ones = (0, 1, 255, 256, 65535, 65536, 70000, 98304, (1 << n) - 1)
    bits = [0] * (1 << n)
    for row in ones:
        bits[row] = 1
    p = from_truth_vector(TruthVector(n, tuple(bits)))
    assert p == _reference_poly(bits)
    assert p.coefficient(range(n)) != 0  # all 17 positions, row mask 2**17 - 1
