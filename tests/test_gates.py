"""Qudit gate constructors and the up-to-phase comparison."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic.gates import (_MAX_DIM, GateSpec, _anchor, cz_gate, equal_up_to_phase, flip_gate,
                               hadamard, make_gate, mult_gate, omega, p_gate,
                               parse_gate, phase_distance, q_gate,
                               relative_phase_gate, sum_gate, x_gate, z_gate)
from metaplectic.synthesis import phase_canonical


def test_hadamard_on_zero():
    out = hadamard(3) @ np.array([1, 0, 0])
    assert abs(out - np.ones(3) / math.sqrt(3)).max() < 1e-15


def test_sum_gate_example():
    state = np.zeros(9)
    state[1 * 3 + 2] = 1.0  # |1,2>
    out = sum_gate(3) @ state
    assert out[1 * 3 + 0] == 1.0  # |1,0>
    assert np.abs(out).sum() == 1.0


def test_p_gate_example():
    p1 = p_gate(3, 1)
    assert p1[1, 1] == pytest.approx(-omega(3) ** 2)
    assert p1[0, 0] == 1.0


def test_mult_gate_example():
    state = np.zeros(5)
    state[3] = 1.0
    out = mult_gate(5, 2) @ state
    assert out[1] == 1.0  # 2*3 mod 5


def test_x_z_definitions():
    assert (x_gate(3) @ np.eye(3)[2])[0] == 1.0
    assert z_gate(5)[2, 2] == pytest.approx(omega(5) ** 2)
    assert cz_gate(3)[4, 4] == pytest.approx(omega(3))  # |1,1>


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_hadamard_unitary(d):
    h = hadamard(d)
    assert abs(h.conj().T @ h - np.eye(d)).max() < 1e-12


def test_h3_squared_swaps_one_two():
    swap = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    h2 = hadamard(3) @ hadamard(3)
    assert abs(h2 - swap).max() < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_q_gate_product_is_omega_identity(d):
    prod = np.eye(d, dtype=complex)
    for i in range(d):
        prod = prod @ q_gate(d, i)
    assert abs(prod - omega(d) * np.eye(d)).max() < 1e-12


def test_z3_from_q_gates():
    z_built = q_gate(3, 1) @ np.linalg.matrix_power(q_gate(3, 2), 2)
    assert abs(z_built - z_gate(3)).max() < 1e-12


def test_x3_from_hadamard_conjugation():
    h = hadamard(3)
    built = h.conj().T @ z_gate(3) @ h
    assert abs(built - x_gate(3)).max() < 1e-12


@pytest.mark.parametrize("i", [0, 1, 2])
def test_p_squared_is_q(i):
    # (-w^2)^2 = w^4 = w, so P[i] is a square root of Q[i]
    assert abs(p_gate(3, i) @ p_gate(3, i) - q_gate(3, i)).max() < 1e-12


def test_p2_factors_through_flip():
    built = q_gate(3, 2) @ q_gate(3, 2) @ flip_gate(3, 2)
    assert abs(p_gate(3, 2) - built).max() < 1e-12


@pytest.mark.parametrize("d", [3, 5])
def test_sum_from_cz_and_hadamard(d):
    h = hadamard(d)
    eye = np.eye(d)
    built = np.kron(eye, h) @ cz_gate(d).conj().T @ np.kron(eye, h.conj().T)
    assert abs(built - sum_gate(d)).max() < 1e-12


def test_parameter_validation():
    with pytest.raises(ValueError):
        q_gate(3, 3)
    with pytest.raises(ValueError):
        mult_gate(6, 2)  # gcd != 1
    with pytest.raises(ValueError):
        relative_phase_gate(5, 2, 2)
    with pytest.raises(ValueError):
        make_gate(GateSpec("H", 1))
    with pytest.raises(ValueError):
        make_gate(GateSpec("WAT", 3))


def test_gate_side_is_bounded_before_building():
    """A gate acts on at most _MAX_DIM dimensions (d^2 for SUM and CZ); a
    wider name is refused before its matrix is built."""
    assert _MAX_DIM == 256
    assert make_gate(parse_gate("SUM16")).shape == make_gate(parse_gate("H256")).shape == (256, 256)
    for name in ("H257", "SUM17", "CZ100", "Q100003[1]", "SUM1000"):
        with pytest.raises(ValueError, match=f"more than {_MAX_DIM} dimensions"):
            parse_gate(name)


def test_parse_gate_names():
    assert parse_gate("H3") == GateSpec("H", 3)
    assert parse_gate("Q3[1]") == GateSpec("Q", 3, (1,))
    assert parse_gate("FLIP3[2]") == GateSpec("FLIP", 3, (2,))
    assert parse_gate("M5[2]") == GateSpec("M", 5, (2,))
    assert parse_gate("R5[1,2,3]") == GateSpec("R", 5, (1, 2, 3))
    with pytest.raises(ValueError):
        parse_gate("H")
    with pytest.raises(ValueError):
        parse_gate("M6[2]")


def test_equal_up_to_phase_scalar_case():
    gamma = cmath.exp(1j * 0.7)
    ok, theta = equal_up_to_phase(gamma * np.eye(4), np.eye(4))
    assert ok and abs(theta - gamma) < 1e-12


def test_equal_up_to_phase_rejects_nonproportional():
    h = hadamard(3)
    assert not phase_distance(h, h @ np.diag([1, 1, -1]))[0] < 1e-6
    assert not equal_up_to_phase(h, h @ np.diag([1, 1, -1]))[0]


@pytest.mark.parametrize("entry, ok", [(1e-8, False), (math.nextafter(1e-8, 0), True)])
def test_equal_up_to_phase_bound_is_strict(entry, ok):
    """I against I with one off-diagonal entry: the phase is 1 and the
    residual is that entry exactly, so 1e-8 itself fails."""
    u = np.eye(3)
    u[0, 2] = entry
    assert phase_distance(u, np.eye(3)) == (entry, 1)
    assert equal_up_to_phase(u, np.eye(3)) == (ok, 1)


def test_one_anchor_rule_fixes_both_phases():
    # (0,1) is within 1e-9 of the largest modulus and precedes (1,0)
    m = np.array([[0.5j, (1 - 5e-10) * 1j], [-1.0, 0.2]])
    assert _anchor(m) == (0, 1)
    canon = phase_canonical(m)
    assert canon[0, 1].imag == 0 and canon[0, 1].real > 0
    gamma = cmath.exp(0.3j)
    residual, theta = phase_distance(gamma * m, m)
    assert residual < 1e-15 and abs(theta - gamma) < 1e-15


def test_phase_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        phase_distance(np.eye(2), np.eye(3))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-math.pi, max_value=math.pi), st.integers(min_value=0, max_value=10 ** 6))
def test_equal_up_to_phase_recovers_phase(angle, seed):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u = np.linalg.qr(mat)[0]
    theta = cmath.exp(1j * angle)
    ok, found = equal_up_to_phase(theta * u, u)
    assert ok and abs(found - theta) < 1e-8


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["H", "Q0", "Q1", "X", "Z", "P2"]), min_size=1, max_size=8))
def test_gate_products_stay_unitary(word):
    table = {"H": hadamard(3), "Q0": q_gate(3, 0), "Q1": q_gate(3, 1),
             "X": x_gate(3), "Z": z_gate(3), "P2": p_gate(3, 2)}
    out = np.eye(3, dtype=complex)
    for name in word:
        out = out @ table[name]
    assert abs(out.conj().T @ out - np.eye(3)).max() < 1e-10


# The 2-D phase helpers as they were before they learned (..., d, d) stacks,
# verbatim: the stacked ones must reproduce them bit for bit, since
# ``verify identity`` prints the residual in its machine section.

def reference_anchor(m):
    mags = np.abs(m)
    return next(zip(*np.nonzero(mags >= mags.max() - 1e-9)))


def reference_phase_distance(u, v):
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    idx = reference_anchor(v)
    theta = u[idx] / v[idx]
    if abs(theta) > 1e-30:
        theta /= abs(theta)
    return abs(u - theta * v).max(), theta


def reference_phase_canonical(u):
    entry = u[reference_anchor(u)]
    return u * (abs(entry) / entry)


def _phase_cases(rng, count, dims=range(1, 7)):
    """(u, v) pairs of random complex d x d matrices, d in ``dims``: unrelated,
    phase-rotated copies (u = e^{i phi} v), and v rounded to 0.1 with its
    largest entry copied, so that the anchor rule meets ties."""
    for k in range(count):
        d = int(rng.choice(dims))
        v = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        kind = k % 3
        if kind == 0:
            u = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        elif kind == 1:
            u = np.exp(2j * np.pi * rng.random()) * v
        else:
            v = np.round(v, 1)
            v[0, 0] += not v.any()  # a zero v has no phase to read
            # the largest entry a quarter turn on, somewhere else: an exact tie
            top = np.unravel_index(np.abs(v).argmax(), v.shape)
            v[tuple(rng.integers(d, size=2))] = 1j * v[top]
            u = np.round(np.exp(2j * np.pi * rng.random()) * v, 1)
        yield u, v


def test_stack_aware_phase_helpers_match_the_2d_reference():
    rng = np.random.default_rng(11)
    for u, v in _phase_cases(rng, 3000):
        assert _anchor(v) == reference_anchor(v)
        residual, theta = phase_distance(u, v)
        ref_residual, ref_theta = reference_phase_distance(u, v)
        assert residual == ref_residual and theta == ref_theta
        assert type(residual) is type(ref_residual) and type(theta) is type(ref_theta)
        assert np.array_equal(phase_canonical(v), reference_phase_canonical(v))
    # the exact cases: u = v (theta 1) and a zero anchor entry of u (theta 1,
    # residual max|v|: no phase is read, and none is forgiven)
    eye = np.eye(3, dtype=complex)
    assert phase_distance(eye, eye) == reference_phase_distance(eye, eye) == (0.0, 1.0)
    zero = np.zeros((3, 3), dtype=complex)
    assert phase_distance(zero, eye) == (abs(eye).max(), 1.0)


def test_zero_anchor_reads_no_phase():
    """u zero at v's anchor: theta is 1 and the residual max|v|, alone and as
    one slice of a stack, so a zero matrix never equals a gate."""
    h = hadamard(3)
    assert equal_up_to_phase(np.zeros((3, 3)), h) == (False, 1)
    phase = np.exp(0.3j)
    stack = np.stack([phase * h, np.zeros((3, 3)), h])
    residual, theta = phase_distance(stack, np.broadcast_to(h, stack.shape))
    assert residual[0] < 1e-15 and abs(theta[0] - phase) < 1e-15
    assert (residual[1], theta[1]) == (abs(h).max(), 1)
    assert (residual[2], theta[2]) == (0, 1)


@pytest.mark.parametrize("lead", [(1,), (7,), (2, 5), (0,), (2, 0)])  # and empty stacks
def test_stack_aware_phase_helpers_act_slice_by_slice(lead):
    rng = np.random.default_rng(12)
    for d in (1, 2, 3, 5):
        pairs = list(_phase_cases(rng, int(np.prod(lead)), dims=[d]))
        u = np.array([p[0] for p in pairs]).reshape(lead + (d, d))
        v = np.array([p[1] for p in pairs]).reshape(lead + (d, d))
        residual, theta = phase_distance(u, v)
        canon = phase_canonical(v)
        rows, cols = _anchor(v)[-2:]
        assert residual.shape == theta.shape == rows.shape == lead and canon.shape == v.shape
        for index in np.ndindex(*lead):
            assert (rows[index], cols[index]) == reference_anchor(v[index])
            assert (residual[index], theta[index]) == reference_phase_distance(u[index], v[index])
            assert np.array_equal(canon[index], reference_phase_canonical(v[index]))
