"""Protocol simulator: states, measurements, and the Flip construction."""

import itertools
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic.gates import hadamard, sum_gate, x_gate
from metaplectic import protocol
from metaplectic.protocol import (FLIP_PATTERNS, FlipCurveRow, ProtocolState,
                                  estimate_flip_success, exact_flip_curve,
                                  exact_flip_probability, prepare_flip_ancilla,
                                  run_flip_round)

OMEGA = np.exp(2j * np.pi / 3)
B = protocol._BLOCK  # live trials per block of the Monte Carlo round loop


# ---------------------------------------------------------------------------
# Slow reference path: the register operations as moveaxis/tensordot per
# call, measurement through Generator.choice, operators rebuilt on every
# attempt, and the Monte Carlo batch in complex with an alive mask.  The
# fast path must reproduce it bit for bit on the Flip protocol.


class SlowState:
    def __init__(self, amps, rng):
        self.amps, self.rng, self.d = amps, rng, amps.shape[0]

    def apply(self, gate):  # on the whole register, in order
        k = self.amps.ndim
        tensor = gate.reshape((self.d,) * (2 * k))
        self.amps = np.tensordot(tensor, self.amps,
                                 axes=(tuple(range(k, 2 * k)), tuple(range(k))))

    def measure_standard(self, qudit):
        axes = tuple(ax for ax in range(self.amps.ndim) if ax != qudit)
        probs = (np.abs(self.amps) ** 2).sum(axis=axes)
        outcome = int(self.rng.choice(self.d, p=probs / probs.sum()))
        keep = np.zeros(self.d)
        keep[outcome] = 1.0
        self.collapse(qudit, np.diag(keep))
        return outcome, float(probs[outcome])

    def project(self, qudit, vectors):
        basis = np.array([np.asarray(v, complex) / np.linalg.norm(v) for v in vectors]).T
        proj = basis @ basis.conj().T
        moved = np.moveaxis(self.amps, qudit, 0).reshape(self.d, -1)
        p_in = min(max(float((np.abs(proj @ moved) ** 2).sum()), 0.0), 1.0)
        inside = self.rng.random() < p_in
        self.collapse(qudit, proj if inside else np.eye(self.d) - proj)
        return ("in" if inside else "out"), (p_in if inside else 1.0 - p_in)

    def collapse(self, qudit, operator):
        moved = np.tensordot(operator, np.moveaxis(self.amps, qudit, 0), axes=(1, 0))
        self.amps = np.moveaxis(moved, 0, qudit)
        self.amps /= np.linalg.norm(self.amps)


def slow_prepare_flip_ancilla(rng):
    h3 = hadamard(3)
    e0, e1 = np.eye(3)[0], np.eye(3)[1]
    attempts = 0
    while True:
        attempts += 1
        amps = np.zeros((3, 3), dtype=complex)
        amps[1, 2] = 1.0
        state = SlowState(amps, rng)
        state.apply(np.kron(h3, h3))
        if state.project(0, [e0, e1])[0] != "in":
            continue
        if state.project(1, [e0, e1])[0] != "in":
            continue
        state.apply(sum_gate(3))
        if state.project(0, [h3[:, 0]])[0] != "in":
            continue
        marginal = np.tensordot(h3[:, 0].conj(), state.amps, axes=(0, 0))
        return marginal / np.linalg.norm(marginal), attempts


def slow_run_flip_round(phi, psi, rng):
    vec = np.kron(np.asarray(phi, complex), psi)
    state = SlowState((vec / np.linalg.norm(vec)).reshape(3, 3), rng)
    state.apply(sum_gate(3))
    outcome, _ = state.measure_standard(1)
    marginal = state.amps[:, outcome]
    return FLIP_PATTERNS[outcome], marginal / np.linalg.norm(marginal)


def slow_estimate_flip_success(trials, n_max, seed):
    rng = np.random.default_rng(seed)
    psi = np.array([1, -1, 1], dtype=complex) / np.sqrt(3)
    shifted = np.array([[psi[(j - i) % 3] for j in range(3)] for i in range(3)])
    round_patterns = np.sign(shifted.real.T).astype(np.int8)
    phi = np.tile(np.array([1, 1, 1], dtype=complex) / np.sqrt(3), (trials, 1))
    accumulated = np.ones((trials, 3), dtype=np.int8)
    alive = np.ones(trials, dtype=bool)
    successes = np.zeros(n_max, dtype=np.int64)
    done = 0
    for round_index in range(n_max):
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            successes[round_index:] = done
            break
        amps = phi[idx, :, None] * shifted[None, :, :]
        probs = (np.abs(amps) ** 2).sum(axis=1)
        draws = rng.random(idx.size)
        outcomes = np.minimum((draws[:, None] >= np.cumsum(probs, axis=1)).sum(axis=1), 2)
        rows_sel = np.arange(idx.size)
        phi[idx] = amps[rows_sel, :, outcomes] / np.sqrt(probs[rows_sel, outcomes])[:, None]
        accumulated[idx] *= round_patterns[outcomes]
        acc = accumulated[idx]
        success = (acc[:, 0] == acc[:, 1]) & (acc[:, 2] == -acc[:, 0])
        done += int(success.sum())
        alive[idx[success]] = False
        successes[round_index] = done
    rows = []
    for n in range(1, n_max + 1):
        p_hat = successes[n - 1] / trials
        stderr = np.sqrt(max(p_hat * (1 - p_hat), 1e-300) / trials)
        rows.append(FlipCurveRow(n, float(p_hat), float(exact_flip_probability(n)), float(stderr)))
    return rows


def blocked_estimate_flip_success(trials, n_max, seed):
    """The blocked amplitude kernel the sign-class kernel replaced: every
    live trial's amplitudes in a (3, trials) float64 array and its
    accumulated signs in a (3, trials) int8 array, walked in blocks of B
    with one draw per block."""
    rng = np.random.default_rng(seed)
    psi = np.array([1.0, -1.0, 1.0]) / np.sqrt(3)
    shifted = psi[protocol._SHIFT]
    patterns = np.sign(shifted).astype(np.int8)
    phi = np.full((3, trials), 1 / np.sqrt(3))
    accumulated = np.ones((3, trials), dtype=np.int8)
    width = min(trials, B)
    probs = np.empty((3, width))
    columns = np.arange(width)
    successes = np.zeros(n_max, dtype=np.int64)
    live, done = trials, 0
    for round_index in range(n_max):
        if not live:
            successes[round_index:] = done
            break
        kept_live = 0
        for start in range(0, live, B):
            stop = min(start + B, live)
            w = stop - start
            amps, signs = phi[:, start:stop], accumulated[:, start:stop]
            p = probs[:, :w]
            for j in range(3):
                sq = np.square(amps * shifted[:, j, None])
                np.add(sq[0], sq[1], out=p[j])
                p[j] += sq[2]
            draws = rng.random(w)
            outcomes = np.add(draws >= p[0], draws >= p[0] + p[1], dtype=np.intp)
            kept = p[outcomes, columns[:w]]
            amps = amps * shifted.take(outcomes, axis=1) / np.sqrt(kept)
            signs = signs * patterns.take(outcomes, axis=1)
            alive = (signs[0] != signs[1]) | (signs[2] != -signs[0])
            front = slice(kept_live, kept_live + int(np.count_nonzero(alive)))
            np.compress(alive, amps, axis=1, out=phi[:, front])
            np.compress(alive, signs, axis=1, out=accumulated[:, front])
            kept_live = front.stop
        done += live - kept_live
        live = kept_live
        successes[round_index] = done
    p_hat = successes / trials
    stderr = np.sqrt(np.maximum(p_hat * (1 - p_hat), 1e-300) / trials)
    return [FlipCurveRow(n, rate, float(exact_flip_probability(n)), err)
            for n, rate, err in zip(range(1, n_max + 1), p_hat.tolist(), stderr.tolist())]


def random_state(rng, shape):
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return amps / np.linalg.norm(amps)


# data qutrits the slow-path Flip comparisons run besides random ones: exact
# and negative zeros, whose signs only a byte comparison sees, and norms
# 1e-3 and 1e3
FLIP_EDGE_STARTS = [np.array([1, 0, 0], complex), np.array([0, -0.0j, 1j]),
                    1e-3 * np.array([0.6, 0.48j, 0.64]), 1e3 * np.array([0.6, -0.48j, 0.64])]


def flip_starts(data, episodes):
    """The edge starts, then ``episodes`` random unit data qutrits."""
    return FLIP_EDGE_STARTS + [random_state(data, 3) for _ in range(episodes)]


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


@pytest.mark.parametrize("at", [(2, 0), (1, 2), (0, 2)])
def test_apply_two_qudit_gate_out_of_order(at):
    """The gate's first factor acts on qudit at[0], its second on at[1]."""
    rng = np.random.default_rng(at)
    gate = np.linalg.qr(random_state(rng, (9, 9)))[0]
    (other,) = set(range(3)) - set(at)
    full = np.zeros((27, 27), dtype=complex)
    digits = list(itertools.product(range(3), repeat=3))
    for row, out in enumerate(digits):
        for col, inp in enumerate(digits):
            if out[other] == inp[other]:
                full[row, col] = gate[3 * out[at[0]] + out[at[1]], 3 * inp[at[0]] + inp[at[1]]]
    for _ in range(5):
        amps = random_state(rng, (3, 3, 3))
        state = ProtocolState(3, 3, seed=0)
        state.amps = amps.copy()
        state.apply(gate, at)
        assert abs(state.vector() - full @ amps.reshape(-1)).max() < 1e-14


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


def test_apply_rejects_non_unitary():
    state = ProtocolState(2, 3, seed=0)
    for bad in (np.ones((3, 3)), 2 * np.eye(3), np.array([[1, 0, 0], [0, 1, 0], [0, 0, np.nan]]),
                np.ones(3), np.ones((3, 9))):
        with pytest.raises(ValueError):
            state.apply(bad, (0,))
    assert state.norm() == 1.0
    with pytest.raises(ValueError, match="not unitary"):
        state.apply(np.kron(hadamard(3), np.eye(3)) + 1e-8, (0, 1))
    state.apply(hadamard(3) * np.exp(0.3j), (1,))  # unitary up to round-off passes
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_flip_hot_path_skips_unitarity_checks(monkeypatch):
    """The protocol's own gates are checked once, at import."""
    calls = []
    unitary = protocol._unitary
    monkeypatch.setattr(protocol, "_unitary", lambda g: calls.append(1) or unitary(g))
    rng = np.random.default_rng(3)
    psi, _ = prepare_flip_ancilla(rng)
    run_flip_round(np.ones(3) / np.sqrt(3), psi, rng)
    assert not calls
    ProtocolState(1, 3, seed=0).apply(hadamard(3), (0,))
    assert calls == [1]


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


def test_flip_round_with_phase_rotated_ancilla():
    """The ancilla's global phase carries over; the data still flips exactly."""
    psi = np.array([1, -1, 1], dtype=complex) / np.sqrt(3)
    phi = np.array([0.6, 0.48j, 0.64], dtype=complex)
    for theta in (0.7, np.pi, -2.1):
        phase = np.exp(1j * theta)
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(30):
            pattern, collapsed = run_flip_round(phi, phase * psi, rng)
            assert abs(collapsed - phase * phi * np.array(pattern)).max() < 1e-12
            seen.add(pattern)
        assert seen == set(FLIP_PATTERNS.values())


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
    # zero rounds are valid, and any integer type is a round count
    assert exact_flip_probability(0) == 0 and exact_flip_curve(0) == []
    assert exact_flip_probability(np.int64(3)) == curve[2]
    assert exact_flip_curve(np.int64(2)) == curve[:2]


@pytest.mark.parametrize("function", [exact_flip_probability, exact_flip_curve])
@pytest.mark.parametrize("n, error", [(-1, ValueError), (-3, ValueError), (2.5, TypeError),
                                      (2.0, TypeError), (True, TypeError), ("3", TypeError),
                                      (np.True_, TypeError)])
def test_exact_flip_round_count_checked(function, n, error):
    with pytest.raises(error):
        function(n)


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


def test_project_rejects_zero_and_nan_vectors():
    for bad in (np.zeros(3), np.array([1.0, np.nan, 0.0]), np.array([np.inf, 0.0, 0.0])):
        state = ProtocolState(1, 3, seed=0)
        with pytest.raises(ValueError):
            state.project(0, [bad])
        assert abs(state.vector() - np.eye(3)[0]).max() == 0


def test_project_rejects_wrong_length_and_empty():
    state = ProtocolState(1, 3, seed=0)
    with pytest.raises(ValueError):
        state.project(0, [np.array([1.0, 0.0])])
    with pytest.raises(ValueError):
        state.project(0, [])


def test_qudit_index_checked():
    state = ProtocolState(2, 3, seed=0)
    with pytest.raises(IndexError):
        state.probabilities(7)
    with pytest.raises(IndexError):
        state.measure_standard(5)
    with pytest.raises(IndexError):
        state.project(2, [np.eye(3)[0]])
    with pytest.raises(IndexError):
        state.probabilities(-1)


QUDIT_CALLS = {
    "probabilities": lambda state, q: state.probabilities(q),
    "measure_standard": lambda state, q: state.measure_standard(q),
    "project": lambda state, q: state.project(q, [np.eye(3)[0]]),
    "apply": lambda state, q: state.apply(hadamard(3), (q,)).vector(),
}


@pytest.mark.parametrize("method", sorted(QUDIT_CALLS))
@pytest.mark.parametrize("qudit", [1.0, True, False, np.True_, "1", None, 2, -1],
                         ids=repr)
def test_qudit_index_must_be_an_int_in_range(method, qudit):
    state = ProtocolState(2, 3, seed=0).apply(np.kron(hadamard(3), hadamard(3)), (0, 1))
    before = state.vector()
    with pytest.raises(IndexError, match="bad qudit index"):
        QUDIT_CALLS[method](state, qudit)
    assert np.array_equal(state.vector(), before)


@pytest.mark.parametrize("method", sorted(QUDIT_CALLS))
@pytest.mark.parametrize("qudit", [np.int64(1), np.uint8(1), np.intp(1)], ids=repr)
def test_qudit_index_accepts_numpy_integers(method, qudit):
    states = [ProtocolState(2, 3, seed=0).apply(np.kron(hadamard(3), x_gate(3)), (0, 1))
              for _ in range(2)]
    np.testing.assert_equal(QUDIT_CALLS[method](states[0], qudit),
                            QUDIT_CALLS[method](states[1], 1))
    assert np.array_equal(states[0].vector(), states[1].vector())


def test_from_vector_rejects_zero_and_non_finite():
    for bad in (np.zeros(9), np.zeros(0), np.array([1.0, np.nan, 0, 0, 0, 0, 0, 0, 0]),
                np.array([np.inf, 0, 0, 0, 0, 0, 0, 0, 0])):
        with pytest.raises(ValueError):
            ProtocolState.from_vector(bad, 3, seed=0)
    psi = np.array([1, -1, 1], dtype=complex) / np.sqrt(3)
    with pytest.raises(ValueError):
        run_flip_round(np.zeros(3), psi, np.random.default_rng(0))


def test_measure_standard_rejects_invalid_probabilities():
    state = ProtocolState(1, 3, seed=0)
    state.amps = np.array([np.nan, 1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        state.measure_standard(0)
    state.amps = np.zeros(3, dtype=complex)
    with pytest.raises(ValueError):
        state.measure_standard(0)


def test_measure_standard_rejects_an_overflowing_total():
    """Finite probabilities whose sum overflows to inf would normalise to
    all zeros and divide by zero; they are refused like other invalid ones.
    (numpy warns of the overflow in the sum, which is not what is tested.)"""
    state = ProtocolState(1, 3, seed=0)
    state.amps = np.array([1.3e154, 1.3e154, 0], dtype=complex)
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                   match="invalid outcome probabilities"):
        state.measure_standard(0)


def test_register_ops_match_slow_path():
    # projections and measurements on every qudit of random 1-3 qutrit
    # registers: same outcomes and draws; both sides contract the moved
    # qudit axis with tensordot, so amplitudes agree to a few float64 ulp
    # at most (a BLAS may sum the products in another order)
    for seed in range(60):
        rng = np.random.default_rng(seed)
        m = 1 + seed % 3
        amps = random_state(rng, (3,) * m)
        vectors = [v for v in np.linalg.qr(random_state(rng, (3, 3)))[0].T[:1 + seed % 2]]
        fast = ProtocolState(m, 3, rng=np.random.default_rng(seed))
        fast.amps = amps.copy()
        slow = SlowState(amps.copy(), np.random.default_rng(seed))
        for q in range(m):
            out_fast, p_fast = fast.project(q, vectors)
            out_slow, p_slow = slow.project(q, vectors)
            assert out_fast == out_slow and p_fast == pytest.approx(p_slow, abs=1e-14)
            assert abs(fast.vector() - slow.amps.reshape(-1)).max() < 1e-14
            meas_fast, meas_slow = fast.measure_standard(q), slow.measure_standard(q)
            assert meas_fast[0] == meas_slow[0]
            assert meas_fast[1] == pytest.approx(meas_slow[1], abs=1e-14)
            assert abs(fast.vector() - slow.amps.reshape(-1)).max() < 1e-14


@pytest.mark.parametrize("seed", [4, 5, 11])
def test_ancilla_and_rounds_match_slow_path(seed):
    """Byte-equal ancillas and states (so the signs of zeros too), odd
    episodes with the ancilla times a random phase."""
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    data = np.random.default_rng([seed, 2])
    for episode, start in enumerate(flip_starts(data, 40)):
        psi, attempts = prepare_flip_ancilla(fast_rng)
        psi_slow, attempts_slow = slow_prepare_flip_ancilla(slow_rng)
        assert attempts == attempts_slow and psi.tobytes() == psi_slow.tobytes()
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
        if episode % 2:
            phase = np.exp(1j * data.uniform(0, 2 * np.pi))
            psi, psi_slow = phase * psi, phase * psi_slow
        phi = phi_slow = start
        for _ in range(5):
            pattern, phi = run_flip_round(phi, psi, fast_rng)
            pattern_slow, phi_slow = slow_run_flip_round(phi_slow, psi_slow, slow_rng)
            assert pattern == pattern_slow and phi.tobytes() == phi_slow.tobytes()
            assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


@pytest.mark.parametrize("trials, n_max, seed", [(20000, 10, 0), (20000, 10, 5), (3000, 8, 123),
                                                 (1, 60, 1), (7, 60, 7), (200, 80, 3),
                                                 (B - 1, 10, 2), (B, 10, 8), (B + 1, 10, 13),
                                                 (3 * B + 17, 12, 21), (150_000, 10, 6)])
def test_monte_carlo_matches_slow_path(trials, n_max, seed):
    # (1, 60, 1), (7, 60, 7) and (200, 80, 3) run until every trial is
    # absorbed before n_max; the next four put the first round's live count
    # on either side of one block and past three
    fast = estimate_flip_success(trials, n_max, seed)
    assert fast == slow_estimate_flip_success(trials, n_max, seed)
    assert fast == blocked_estimate_flip_success(trials, n_max, seed)
    if trials < 1000:
        assert fast[-1].p_hat == 1.0


def test_monte_carlo_matches_blocked_kernel_at_a_million():
    assert estimate_flip_success(10 ** 6, 10, 3) == blocked_estimate_flip_success(10 ** 6, 10, 3)


def test_sign_classes_are_the_quotient_group():
    """Codes multiply as patterns do, and two patterns share a code exactly
    when they agree up to a global sign."""
    patterns = list(itertools.product((1, -1), repeat=3))
    for a, b in itertools.product(patterns, repeat=2):
        product = tuple(x * y for x, y in zip(a, b))
        assert protocol._sign_class(product) == protocol._sign_class(a) ^ protocol._sign_class(b)
        assert (protocol._sign_class(a) == protocol._sign_class(b)) == (a in (b, tuple(-x for x in b)))
    assert protocol._ABSORBING == protocol._sign_class((-1, -1, 1)) != 0


@pytest.mark.parametrize("d", range(2, 13))
def test_born_outcome_matches_searchsorted(d):
    """Python-float cdf and bisect against the numpy cdf and searchsorted,
    on random draws and on every cdf boundary and its neighbours.  The
    total is numpy's, as callers pass it: pairwise from d = 8."""
    rng = np.random.default_rng(d)

    class Fixed:
        def __init__(self, value):
            self.value = value

        def random(self):
            return self.value

    for _ in range(300):
        probs = rng.random(d) * rng.choice([1.0, 1e-9, 1e9], d)
        probs[rng.integers(d)] = 0.0
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        draws = [rng.random()] + [v for c in cdf for v in (c, np.nextafter(c, 0), np.nextafter(c, 2))
                                  if 0 <= v < 1]
        for draw in draws:
            expected = int(cdf.searchsorted(draw, side="right"))
            assert protocol._born_outcome(probs.tolist(), float(probs.sum()),
                                          Fixed(float(draw))) == expected


def test_numpy_sums_three_floats_left_to_right():
    """A Flip round sums its probabilities on Python floats as
    ``(a + b) + c``; numpy's 1-D ``sum`` and a 3 x 3 ``sum(axis=0)`` must
    do the same, or the draws move."""
    rng = np.random.default_rng(31)
    for scale in (1.0, 1e-9, 1e9):
        triples = rng.random((3000, 3)) * rng.choice([1.0, scale], (3000, 3))
        left_to_right = [(a + b) + c for a, b, c in triples.tolist()]
        assert [float(t.sum()) for t in triples] == left_to_right
        # C-contiguous 3 x 3 blocks holding a triple per column, as a round's are
        blocks = np.ascontiguousarray(triples.reshape(-1, 3, 3).transpose(0, 2, 1))
        assert [x for block in blocks for x in block.sum(axis=0).tolist()] == left_to_right


def test_monte_carlo_survivors_cross_block_edge():
    # round 2 starts with one full block and a partial one and ends with
    # fewer than B survivors, so they compact across the block edge
    trials, n_max, seed = 2 * B + 5, 6, 4
    rows = estimate_flip_success(trials, n_max, seed)
    live = [trials] + [trials - round(row.p_hat * trials) for row in rows]
    assert live[1] > B >= live[2]
    assert rows == slow_estimate_flip_success(trials, n_max, seed)


@pytest.mark.parametrize("widths", [(300, 1, 699), (B, B, B, 17)])
def test_blockwise_draws_equal_one_draw(widths):
    """The Monte Carlo rows rest on this: per-block draws are the one-call stream."""
    whole = np.random.default_rng(17).random(sum(widths))
    rng = np.random.default_rng(17)
    assert np.array_equal(np.concatenate([rng.random(w) for w in widths]), whole)


def test_monte_carlo_memory_is_bounded():
    # the live sign classes take 1 MB at a million trials; the rest is
    # block-sized
    tracemalloc.start()
    try:
        estimate_flip_success(1_000_000, 10, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_monte_carlo_exact_column_and_long_runs():
    rows = estimate_flip_success(1, 300, seed=0)
    assert [row.p_exact for row in rows] == [float(exact_flip_probability(n))
                                             for n in range(1, 301)]
    start = time.perf_counter()
    rows = estimate_flip_success(5, 100_000, seed=0)
    assert time.perf_counter() - start < 2.0
    assert rows[-1] == FlipCurveRow(100_000, 1.0, 1.0, float(np.sqrt(1e-300 / 5)))


@pytest.mark.parametrize("num_qudits, d, initial", [
    (2, 3, (1,)), (2, 3, (1, 2, 0)), (2, 3, (-1, 0)), (2, 3, (0, 3)),
    (-1, 3, None), (0, 3, None), (2, 0, None), (2, 1, None)])
def test_register_domain_checked(num_qudits, d, initial):
    with pytest.raises(ValueError):
        ProtocolState(num_qudits, d, seed=0, initial=initial)


@pytest.mark.parametrize("size, d", [(3, 1), (1, 3), (8, 3), (9, 2)])
def test_from_vector_needs_a_power_of_d(size, d):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            ProtocolState.from_vector(np.ones(size), d, seed=0)


# ---------------------------------------------------------------------------
# The Flip fast path against the register path it replaces


class _AlwaysIn:
    def random(self):
        return 0.0


@pytest.mark.parametrize("seed", [4, 5, 11])
@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_flip_episodes_match_slow_path_draw_for_draw(seed, theta):
    """Same ancillas, attempts, patterns and states, and the Generator in the
    same state after every call, so each call makes the slow path's draws."""
    phase = np.exp(1j * theta)
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    data = np.random.default_rng([seed, 2])
    for start in flip_starts(data, 40):
        psi, attempts = prepare_flip_ancilla(fast_rng)
        psi_slow, attempts_slow = slow_prepare_flip_ancilla(slow_rng)
        assert attempts == attempts_slow and psi.tobytes() == psi_slow.tobytes()
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
        psi, psi_slow = phase * psi, phase * psi_slow
        phi = phi_slow = start
        for _ in range(5):
            pattern, phi = run_flip_round(phi, psi, fast_rng)
            pattern_slow, phi_slow = slow_run_flip_round(phi_slow, psi_slow, slow_rng)
            assert pattern == pattern_slow and phi.tobytes() == phi_slow.tobytes()
            assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


def test_ancilla_chances_are_the_registers():
    # a typed 2/3 or 1/4 differs from these in the last bits; the draw-for-draw
    # test would almost never land a draw in that gap
    h3 = hadamard(3)
    e0, e1 = np.eye(3)[0], np.eye(3)[1]
    amps = np.zeros((3, 3), dtype=complex)
    amps[1, 2] = 1.0
    state = SlowState(amps, _AlwaysIn())
    state.apply(np.kron(h3, h3))
    chances = [state.project(0, [e0, e1]), state.project(1, [e0, e1])]
    state.apply(sum_gate(3))
    chances.append(state.project(0, [h3[:, 0]]))
    assert all(outcome == "in" for outcome, _ in chances)
    assert protocol._ANCILLA_CHANCES == tuple(p for _, p in chances)
    assert np.array_equal(protocol._ANCILLA, slow_prepare_flip_ancilla(_AlwaysIn())[0])


def test_ancilla_is_a_fresh_copy():
    rng = np.random.default_rng(0)
    psi, _ = prepare_flip_ancilla(rng)
    expected = psi.copy()
    psi[:] = 0
    again, _ = prepare_flip_ancilla(rng)
    assert np.array_equal(again, expected)
    again[0] = 5.0  # writable
    assert np.array_equal(prepare_flip_ancilla(rng)[0], expected)


def test_flip_hot_path_builds_no_register(monkeypatch):
    calls = []
    init = ProtocolState.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProtocolState, "__init__", counting_init)
    rng = np.random.default_rng(3)
    for _ in range(5):
        psi, _ = prepare_flip_ancilla(rng)
        run_flip_round(np.ones(3) / np.sqrt(3), psi, rng)
    assert not calls
    ProtocolState(1, 3, seed=0)
    assert calls == [1]


@pytest.mark.parametrize("phi, psi", [
    (np.ones(9), np.ones(3)), (np.ones(1), np.ones(3)), (np.ones((3, 1)), np.ones(3)),
    (np.ones(3), np.ones(2)), (np.ones(3), np.ones(4))])
def test_flip_round_checks_shapes(phi, psi):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="3-vectors"):
        run_flip_round(phi, psi, rng)
    assert rng.bit_generator.state == state


def test_rng_and_seed_not_both():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="not both"):
        ProtocolState(1, 3, rng=rng, seed=0)
    with pytest.raises(ValueError, match="not both"):
        ProtocolState.from_vector(np.ones(3), 3, rng=rng, seed=0)
    assert ProtocolState.from_vector(np.ones(3), 3, rng=rng).rng is rng
    one, two = (ProtocolState.from_vector(np.ones(3), 3, seed=7) for _ in range(2))
    assert one.measure_standard(0) == two.measure_standard(0)


def test_monte_carlo_shift_table_is_the_sum_gather():
    psi = np.array([1.0, -1.0, 1.0]) / np.sqrt(3)
    shifted = np.array([[psi[(j - i) % 3] for j in range(3)] for i in range(3)])
    assert np.array_equal(psi[protocol._SHIFT], shifted)
    # and it is SUM: (SUM (phi x psi))[i, j] = phi_i psi[_SHIFT[i, j]]
    phi = random_state(np.random.default_rng(1), 3)
    joint = (sum_gate(3) @ np.kron(phi, psi)).reshape(3, 3)
    assert abs(joint - phi[:, None] * psi[protocol._SHIFT]).max() < 1e-15
