"""Density witnesses: spectra, fixed vectors, Schmidt ranks, screens."""

import dataclasses
import math

import numpy as np
import pytest

from metaplectic.gates import omega, sum_gate, relative_phase_gate
from metaplectic.witnesses import (imprimitivity_witness, infinite_order_witness,
                                   qupit_subspace_chain, qutrit_commutator_witness,
                                   qutrit_fixed_vector, so5_partial_results)


def expected_commutator_eigenvalues():
    # oracle: the stated pair are the roots of 3x^2 - 4x + 3
    return np.roots([3.0, -4.0, 3.0])


@pytest.mark.parametrize("i", [0, 1, 2])
def test_qutrit_commutator_spectrum(i):
    report = qutrit_commutator_witness(i)
    roots = expected_commutator_eigenvalues()
    for vals in (report.eigenvalues_w, report.eigenvalues_z):
        nontrivial = sorted((v for v in vals if abs(v - 1) > 1e-6), key=np.angle)
        expected = sorted(roots, key=np.angle)
        assert abs(np.array(nontrivial) - np.array(expected)).max() < 1e-9
    assert report.eigenvalue_residual < 1e-9
    assert report.polynomial_residual < 1e-9


@pytest.mark.parametrize("i", [0, 1, 2])
def test_qutrit_shared_fixed_vector(i):
    report = qutrit_commutator_witness(i)
    ref = qutrit_fixed_vector(i)
    ref = ref / np.linalg.norm(ref)
    assert abs(abs(np.vdot(ref, report.fixed_vector)) - 1.0) < 1e-9
    assert report.fixed_vector_residual < 1e-9


def test_qutrit_commutators_do_not_commute():
    for i in range(3):
        assert qutrit_commutator_witness(i).commutator_norm > 1e-3


def test_commutator_determinant_consistency():
    # the two nontrivial eigenvalues multiply to 1, so det W = det Z = 1
    roots = expected_commutator_eigenvalues()
    assert abs(roots[0] * roots[1] - 1.0) < 1e-12
    for i in range(3):
        report = qutrit_commutator_witness(i)
        assert abs(np.prod(report.eigenvalues_w) - 1.0) < 1e-10
        assert abs(np.prod(report.eigenvalues_z) - 1.0) < 1e-10


def test_infinite_order_screen_on_commutator():
    report = qutrit_commutator_witness(0)
    basis = np.linalg.svd(report.fixed_vector[:, None], full_matrices=True)[0][:, 1:]
    from metaplectic.gates import hadamard, p_gate
    h, p = hadamard(3), p_gate(3, 0)
    w_mat = h @ p @ h.conj().T @ p.conj().T
    restricted = basis.conj().T @ w_mat @ basis
    assert infinite_order_witness(restricted, 10000).passed


def test_infinite_order_rejects_roots_of_unity():
    w3 = omega(3)
    assert not infinite_order_witness(w3 * np.eye(3), 10).passed


def test_infinite_order_fails_when_nothing_is_screened():
    # every eigenvalue within delta of 1: the screen examined nothing
    assert not infinite_order_witness(np.eye(3), 10000).passed
    assert not infinite_order_witness(relative_phase_gate(3, 0, 1, 3), 10000).passed
    assert not infinite_order_witness(np.diag([1.0, np.exp(1e-9j)]), 10000).passed
    assert infinite_order_witness(np.diag([1.0, np.exp(1j)]), 100).passed


@pytest.mark.parametrize("delta", [0.0, -1e-6, 1e-6, 2.0, 5.0, float("nan")])
def test_infinite_order_rejects_bad_delta(delta):
    """The screen's distance from 1 is fixed: no witness takes a delta, not
    even the 1e-6 it uses, by position or by name."""
    for call in (lambda *a, **kw: infinite_order_witness(np.diag([1.0, np.exp(1j)]), *a, **kw),
                 lambda *a, **kw: qupit_subspace_chain(5, *a, **kw), so5_partial_results):
        with pytest.raises(TypeError):
            call(100, delta)
        with pytest.raises(TypeError):
            call(100, delta=delta)


def test_schmidt_rank_of_sum():
    report = imprimitivity_witness(sum_gate(3), 3)
    assert report.schmidt_rank == 3
    # oracle: the image is the maximally entangled state (1/sqrt d) sum |ii>
    image = sum_gate(3) @ report.input_state
    bell = np.zeros(9, dtype=complex)
    for i in range(3):
        bell[i * 3 + i] = 1 / np.sqrt(3)
    assert abs(image - bell).max() < 1e-12
    assert imprimitivity_witness(sum_gate(5), 5).schmidt_rank == 5


def test_schmidt_rank_of_identity():
    assert imprimitivity_witness(np.eye(9), 3).schmidt_rank == 1


@pytest.mark.parametrize("p", [5, 7])
def test_qupit_subspace_chain(p):
    report = qupit_subspace_chain(p)
    assert report.identity_residual < 1e-9
    assert report.restricted_commutator_min > 1e-3
    assert report.infinite_order_passed
    assert min(report.chain_overlaps) > 1e-9
    assert report.total_rank == p
    assert report.passed()


@pytest.mark.parametrize("p", [43, 101])
def test_qupit_subspace_chain_passes_for_large_p(p):
    """The restricted commutator minimum falls roughly as p^-3 (9.1e-4 at
    p = 43, 4.7e-5 at 101); it is held to the round-off bound, not 1e-3."""
    report = qupit_subspace_chain(p)
    assert 1e-9 < report.restricted_commutator_min < 1e-3
    assert report.passed()


def test_subspace_planes_not_orthogonal():
    # S_0 vs S_1 at p = 5: the cross inner-product matrix is nonzero
    w = omega(5)
    def plane(i):
        first = np.zeros(5, dtype=complex)
        first[i] = 1.0
        second = np.array([w ** (i * j) if j != i else 0.0 for j in range(5)])
        return np.column_stack([first, second / np.linalg.norm(second)])
    cross = plane(0).conj().T @ plane(1)
    assert abs(cross).max() > 1e-9


def test_chain_rejects_bad_p():
    for p in (3, 4, 9, 15, 25):
        with pytest.raises(ValueError):
            qupit_subspace_chain(p)


def test_so5_partial_results():
    report = so5_partial_results()
    w5 = omega(5)
    expected_r = np.diag([w5, w5 ** -1, 1.0, 1.0, 1.0])
    assert abs(report.r_matrix_k1 - expected_r).max() < 1e-12
    assert report.fix_residual < 1e-8
    assert report.infinite_order_passed
    assert report.commutant_dim == 1
    assert report.passed()


def test_so5_fixed_vector_value():
    report = so5_partial_results()
    w5 = omega(5)
    raw = np.array([0, 0, w5 ** -1, (np.sqrt(5) + 1) / 2 * w5 ** 2, 1.0], dtype=complex)
    raw /= np.linalg.norm(raw)
    assert abs(report.fixed_vector - raw).max() < 1e-12
    for x_mat in report.x_matrices:
        assert abs(x_mat @ raw - raw).max() < 1e-8


@pytest.fixture(scope="module")
def clean_witness_reports():
    return {"qutrit": qutrit_commutator_witness(0), "chain": qupit_subspace_chain(5),
            "so5": so5_partial_results()}


@pytest.mark.parametrize("report, name, bound, passing_side", [
    ("qutrit", "eigenvalue_residual", 1e-9, 0.0),
    ("qutrit", "polynomial_residual", 1e-9, 0.0),
    ("qutrit", "fixed_vector_residual", 1e-9, 0.0),
    ("qutrit", "commutator_norm", 1e-3, math.inf),
    ("chain", "identity_residual", 1e-9, 0.0),
    ("chain", "restricted_commutator_min", 1e-9, math.inf),
    ("so5", "fix_residual", 1e-8, 0.0),
])
def test_witness_verdict_bounds_are_strict(clean_witness_reports, report, name, bound,
                                           passing_side):
    """The bound itself fails, the next float on its passing side passes,
    and a NaN fails."""
    clean = clean_witness_reports[report]
    assert clean.passed()
    assert not dataclasses.replace(clean, **{name: bound}).passed()
    assert dataclasses.replace(clean, **{name: math.nextafter(bound, passing_side)}).passed()
    assert not dataclasses.replace(clean, **{name: math.nan}).passed()


def test_relative_phase_gate_matches_display():
    w5 = omega(5)
    mat = relative_phase_gate(5, 0, 1, 2)
    assert abs(np.diag(mat) - np.array([w5 ** 2, w5 ** -2, 1, 1, 1])).max() < 1e-12


# ---------------------------------------------------------------------------
# the root-of-unity screen against the brute force over every power


def brute_force_screen(eigenvalues, k_max, delta):
    """(passed, min_power_gap) from 2|sin(k theta / 2)| at every k <= k_max."""
    ks = np.arange(1, k_max + 1)
    min_gap = np.inf
    for lam in eigenvalues:
        if abs(lam - 1.0) > delta:
            min_gap = min(min_gap, float((2.0 * np.abs(np.sin(ks * np.angle(lam) / 2.0))).min()))
    return bool(np.isfinite(min_gap) and min_gap > delta), min_gap


def assert_screen_is_brute_force(u, k_max):
    report = infinite_order_witness(u, k_max)
    assert (report.passed, report.min_power_gap) == \
        brute_force_screen(report.eigenvalues, k_max, 1e-6), (k_max, report.eigenvalues)
    return report


def screened_matrices(monkeypatch, run):
    """The (matrix, k_max) of every screen that ``run()`` makes."""
    import metaplectic.witnesses as witnesses
    screens, screen = [], witnesses.infinite_order_witness

    def recording(u, k_max):
        screens.append((u, k_max))
        return screen(u, k_max)

    monkeypatch.setattr(witnesses, "infinite_order_witness", recording)
    run()
    return screens


@pytest.mark.parametrize("run", [*(lambda p=p: qupit_subspace_chain(p) for p in (5, 7, 11, 13)),
                                 so5_partial_results], ids=["p5", "p7", "p11", "p13", "so5"])
def test_screen_equals_brute_force_on_the_witness_matrices(monkeypatch, run):
    screens = screened_matrices(monkeypatch, run)
    assert len(screens) in (4, 10, 14, 22, 26)
    for u, k_max in screens:
        assert_screen_is_brute_force(u, k_max)


@pytest.mark.parametrize("k_max, count", [(1, 300), (2, 300), (10, 300), (10 ** 4, 200),
                                          (10 ** 6, 3)])
def test_screen_equals_brute_force_on_random_angles(k_max, count):
    rng = np.random.default_rng(k_max)
    for theta in rng.uniform(-np.pi, np.pi, count):
        assert_screen_is_brute_force(np.diag([1.0, np.exp(1j * theta)]), k_max)


@pytest.mark.parametrize("offset", [0.0, 1e-15, 1e-13, 1e-11, 1e-9])
def test_screen_equals_brute_force_near_roots_of_unity(offset):
    # a finite order m: the brute-force minimum is round-off at some multiple of m
    for m in range(1, 60):
        lams = np.exp(1j * (2 * np.pi * np.arange(m) / m + offset))
        for lam in lams:
            assert_screen_is_brute_force(np.array([[lam]]), 1000)


def test_screen_of_minus_one():
    for k_max in (1, 2, 3, 10 ** 4, 10 ** 6):
        report = assert_screen_is_brute_force(-np.eye(2), k_max)
        assert report.passed is (k_max == 1)


def test_screen_evaluates_few_powers():
    from metaplectic.witnesses import _screened_powers
    # an irrational angle: the convergent denominators, a handful of multiples
    assert len(_screened_powers(1.0, 10 ** 6)) < 30
    # order 7: every multiple of 7
    ks = _screened_powers(np.angle(omega(7) ** 3), 10 ** 6)
    assert ks[-1] == 999_999 and len(ks) == 3 + 10 ** 6 // 7
    assert np.all(np.diff(ks) > 0) and ks.dtype == np.arange(1).dtype
    assert list(_screened_powers(np.pi, 5)) == [1, 2, 4]
    assert list(_screened_powers(5e-324, 3)) == [1, 2, 3]  # no float 1 / x at all
    assert list(_screened_powers(0.0, 3)) == [1, 2, 3]


@pytest.mark.parametrize("k_max", [2.5, 2.0, True, False, "10", None])
def test_infinite_order_rejects_non_integer_k_max(k_max):
    with pytest.raises(ValueError):
        infinite_order_witness(np.diag([1.0, np.exp(1j)]), k_max)


def test_infinite_order_takes_numpy_integer_k_max():
    report = infinite_order_witness(np.diag([1.0, np.exp(1j)]), np.int64(100))
    assert report.k_max == 100 and type(report.k_max) is int
