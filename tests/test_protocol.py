"""Protocol simulator: states, measurements, and the Flip construction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic.gates import hadamard, sum_gate, x_gate
from metaplectic.protocol import (FLIP_PATTERNS, ProtocolState,
                                  estimate_flip_success, exact_flip_curve,
                                  exact_flip_probability, prepare_flip_ancilla,
                                  run_flip_round)

OMEGA = np.exp(2j * np.pi / 3)


def test_apply_hadamard():
    state = ProtocolState(1, 3, seed=0)
    state.apply(hadamard(3), (0,))
    assert abs(state.vector() - np.ones(3) / np.sqrt(3)).max() < 1e-12


def test_apply_sum():
    state = ProtocolState(2, 3, seed=0, initial=(1, 2))
    state.apply(sum_gate(3), (0, 1))
    expected = np.zeros(9)
    expected[1 * 3 + 0] = 1.0
    assert abs(state.vector() - expected).max() < 1e-12


def test_apply_x_cyclic():
    state = ProtocolState(1, 3, seed=0, initial=(2,))
    state.apply(x_gate(3), (0,))
    assert abs(state.vector()[0] - 1.0) < 1e-12


def test_apply_index_errors():
    state = ProtocolState(2, 3, seed=0)
    with pytest.raises(IndexError):
        state.apply(hadamard(3), (2,))
    with pytest.raises(ValueError):
        state.apply(hadamard(3), (0, 1))


def test_project_coherent_complement():
    e = np.eye(3)
    seen = set()
    for seed in range(40):
        state = ProtocolState(1, 3, seed=seed)
        state.apply(hadamard(3), (0,))
        outcome, prob = state.project(0, [e[0]])
        seen.add(outcome)
        if outcome == "in":
            assert prob == pytest.approx(1 / 3, abs=1e-12)
            assert abs(state.vector() - e[0]).max() < 1e-12
        else:
            assert prob == pytest.approx(2 / 3, abs=1e-12)
            assert abs(state.vector() - (e[1] + e[2]) / np.sqrt(2)).max() < 1e-12
    assert seen == {"in", "out"}


def test_project_requires_orthonormal():
    state = ProtocolState(1, 3, seed=0)
    with pytest.raises(ValueError):
        state.project(0, [np.array([1, 0, 0]), np.array([1, 1, 0]) / np.sqrt(2)])


def test_standard_measurement_deterministic_state():
    state = ProtocolState(1, 3, seed=0, initial=(2,))
    outcome, prob = state.measure_standard(0)
    assert outcome == 2 and prob == pytest.approx(1.0)


def test_certain_projection_always_in():
    for seed in range(10):
        state = ProtocolState(1, 3, seed=seed)
        outcome, prob = state.project(0, [np.eye(3)[0]])
        assert outcome == "in" and prob == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_norm_preserved_by_apply_and_measure(seed):
    rng = np.random.default_rng(seed)
    state = ProtocolState(2, 3, rng=np.random.default_rng(seed + 1))
    state.amps = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    state.amps /= np.linalg.norm(state.amps)
    state.apply(hadamard(3), (1,))
    assert state.norm() == pytest.approx(1.0, abs=1e-10)
    state.apply(sum_gate(3), (0, 1))
    assert state.norm() == pytest.approx(1.0, abs=1e-10)
    state.measure_standard(0)
    assert state.norm() == pytest.approx(1.0, abs=1e-10)


def test_ancilla_preparation_exact():
    rng = np.random.default_rng(11)
    expected = np.array([1, -1, 1], dtype=complex) / np.sqrt(3)
    for _ in range(50):
        psi, attempts = prepare_flip_ancilla(rng)
        assert attempts >= 1
        assert abs(psi - expected).max() < 1e-9


def test_ancilla_attempts_geometric_mean():
    # success chance per attempt is (2/3)(2/3)(1/4) = 1/9, so mean 9
    rng = np.random.default_rng(5)
    samples = [prepare_flip_ancilla(rng)[1] for _ in range(2000)]
    sigma = np.sqrt(72.0 / len(samples))  # geometric variance (1-p)/p^2 = 72
    assert abs(np.mean(samples) - 9.0) < 4 * sigma


def test_eta_intermediate_state():
    # project both qutrits of H|1> (x) H|2> onto span{|0>,|1>}
    h3 = hadamard(3)
    state = ProtocolState(2, 3, seed=0, initial=(1, 2))
    state.apply(np.kron(h3, h3), (0, 1))
    keep = np.diag([1.0, 1.0, 0.0])
    amps = np.einsum("ab,cd,bd->ac", keep, keep, state.amps)
    amps /= np.linalg.norm(amps)
    eta = 0.5 * np.outer([1, OMEGA, 0], [1, OMEGA ** 2, 0])
    assert abs(amps - eta).max() < 1e-12


def test_flip_round_signs_and_probabilities():
    psi = np.array([1, -1, 1], dtype=complex) / np.sqrt(3)
    phi = np.array([0.6, 0.48j, 0.64], dtype=complex)
    phi /= np.linalg.norm(phi)
    # outcome probabilities are exactly 1/3 regardless of phi
    joint = ProtocolState.from_vector(np.kron(phi, psi), 3, seed=0)
    joint.apply(sum_gate(3), (0, 1))
    probs = joint.probabilities(1)
    assert abs(probs - 1 / 3).max() < 1e-12
    seen = {}
    rng = np.random.default_rng(2)
    for _ in range(60):
        pattern, collapsed = run_flip_round(phi, psi, rng)
        expected = phi * np.array(pattern)
        assert abs(collapsed - expected).max() < 1e-9
        seen[pattern] = seen.get(pattern, 0) + 1
    assert set(seen) == set(FLIP_PATTERNS.values())


def test_two_round_composition_reaches_flip2_up_to_sign():
    # patterns for outcomes (1, 2) compose to Flip[0]*Flip[1] = -Flip[2]
    pattern = tuple(a * b for a, b in zip(FLIP_PATTERNS[1], FLIP_PATTERNS[2]))
    assert pattern == (-1, -1, 1)
    assert tuple(-s for s in pattern) == FLIP_PATTERNS[0]


def test_exact_curve_matches_closed_form():
    curve = exact_flip_curve(10)
    for n in range(1, 11):
        assert curve[n - 1] == exact_flip_probability(n)
        assert curve[n - 1] == Fraction(3 ** n - 2 ** n, 3 ** n)


def test_monte_carlo_matches_curve():
    rows = estimate_flip_success(20000, 8, seed=123)
    for row in rows:
        sigma = max(np.sqrt(row.p_exact * (1 - row.p_exact) / 20000), 1e-12)
        assert abs(row.p_hat - row.p_exact) <= 3 * sigma


def test_monte_carlo_reproducible():
    one = estimate_flip_success(2000, 5, seed=9)
    two = estimate_flip_success(2000, 5, seed=9)
    assert [r.p_hat for r in one] == [r.p_hat for r in two]


def test_estimate_validates_trials():
    with pytest.raises(ValueError):
        estimate_flip_success(0, 3, seed=0)
    with pytest.raises(ValueError):
        estimate_flip_success(100, 0, seed=0)
