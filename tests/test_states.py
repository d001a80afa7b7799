import cmath
import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from boolops.errors import ArityMismatchError, DomainError
from boolops.operators import from_truth_vector, trace_select
from boolops.states import (
    InterpretationState,
    basis_state,
    expectation,
    from_amplitudes,
    is_model,
)
from boolops.truthtable import Interpretation, TruthVector

AND_OBS = from_truth_vector(TruthVector(2, (0, 0, 0, 1)))
XOR_OBS = from_truth_vector(TruthVector(2, (0, 1, 1, 0)))
IMPLIES_OBS = from_truth_vector(TruthVector(2, (1, 1, 0, 1)))


def random_state(rng, arity):
    return from_amplitudes(
        arity,
        [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(1 << arity)],
    )


def test_basis_state_positions():
    assert basis_state(Interpretation((1, 1))).amplitudes[3] == 1
    assert basis_state(Interpretation((0, 0))).amplitudes[0] == 1
    amps = basis_state(Interpretation((1, 0, 1))).amplitudes
    assert amps[5] == 1 and sum(abs(a) for a in amps) == 1


def test_qubit_one_convention():
    # The unit entry of the assignment "1" is the second component.
    assert basis_state(Interpretation((1,))).amplitudes == (0, 1)
    assert basis_state(Interpretation((0,))).amplitudes == (1, 0)


def test_from_amplitudes_normalizes():
    state = from_amplitudes(1, (1, 1))
    assert state.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
    assert not state.input_normalized
    assert from_amplitudes(2, (0, 0, 0, 1)) == basis_state(Interpretation((1, 1)))
    assert from_amplitudes(1, (1, 0)).input_normalized


def test_from_amplitudes_accepts_pairs():
    state = from_amplitudes(1, [(0, 1), (0, 0)])
    assert state.amplitudes == (1j, 0j)


def test_from_amplitudes_errors():
    with pytest.raises(DomainError):
        from_amplitudes(1, (0, 0))
    with pytest.raises(ArityMismatchError):
        from_amplitudes(2, (1, 0))


@pytest.mark.parametrize(
    "amps",
    [
        (math.nan, 1),
        (math.inf, 1),
        (1, -math.inf),
        (complex(0, math.nan), 1),
        ((1, math.inf), 0),
    ],
)
def test_from_amplitudes_rejects_non_finite(amps):
    with pytest.raises(DomainError):
        from_amplitudes(1, amps)


def test_state_normalization_is_enforced():
    with pytest.raises(DomainError):
        InterpretationState(1, (1 + 0j, 1 + 0j))


def test_expectation_crisp_examples():
    assert expectation(AND_OBS, basis_state(Interpretation((1, 1)))) == 1.0
    assert expectation(AND_OBS, basis_state(Interpretation((1, 0)))) == 0.0


def test_expectation_equals_trace_select_on_basis_states():
    for i in range(16):
        obs = from_truth_vector(TruthVector.from_index(2, i))
        for k in range(4):
            itp = Interpretation.from_index(2, k)
            assert (
                abs(expectation(obs, basis_state(itp)) - trace_select(obs, itp))
                < 1e-12
            )


def test_expectation_uniform_xor():
    state = from_amplitudes(2, (0.5, 0.5, 0.5, 0.5))
    assert state.input_normalized
    assert expectation(XOR_OBS, state) == pytest.approx(0.5, abs=1e-12)


def test_expectation_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        expectation(AND_OBS, basis_state(Interpretation((1,))))


def test_is_model_examples():
    assert is_model(IMPLIES_OBS, Interpretation((0, 0)))
    assert not is_model(IMPLIES_OBS, Interpretation((1, 0)))
    false_obs = from_truth_vector(TruthVector(2, (0, 0, 0, 0)))
    true_obs = from_truth_vector(TruthVector(2, (1, 1, 1, 1)))
    for k in range(4):
        itp = Interpretation.from_index(2, k)
        assert not is_model(false_obs, itp)
        assert is_model(true_obs, itp)


def test_is_model_requires_projector():
    with pytest.raises(DomainError):
        is_model(AND_OBS + AND_OBS, Interpretation((0, 0)))


@given(
    st.integers(0, 255),
    st.lists(
        st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
        min_size=8,
        max_size=8,
    ),
)
def test_projector_expectation_stays_in_unit_interval(i, pairs):
    assume(any(re or im for re, im in pairs))
    obs = from_truth_vector(TruthVector.from_index(3, i))
    state = from_amplitudes(3, pairs)
    value = expectation(obs, state)
    assert -1e-12 <= value <= 1 + 1e-12


def test_expectation_linearity_and_complement_duality():
    rng = random.Random(3)
    for _ in range(25):
        state = random_state(rng, 2)
        f = from_truth_vector(TruthVector.from_index(2, rng.randrange(16)))
        g = from_truth_vector(TruthVector.from_index(2, rng.randrange(16)))
        assert expectation(f + g, state) == pytest.approx(
            expectation(f, state) + expectation(g, state), abs=1e-9
        )
        assert expectation(f.complement(), state) == pytest.approx(
            1 - expectation(f, state), abs=1e-9
        )


def test_global_phase_invariance():
    rng = random.Random(5)
    state = random_state(rng, 2)
    for theta in (0.1, 1.0, 2.5, -0.7):
        phase = cmath.exp(1j * theta)
        rotated = InterpretationState(
            2, tuple(phase * a for a in state.amplitudes)
        )
        for i in (3, 6, 9, 14):
            obs = from_truth_vector(TruthVector.from_index(2, i))
            assert abs(expectation(obs, rotated) - expectation(obs, state)) < 1e-12
