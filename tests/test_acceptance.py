"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one ``ACCEPTANCE <k> (<name>): PASS`` line on success
(run with ``pytest -s`` to see them); a failed assertion marks the
criterion FAIL.  Criteria with runtime budgets time the relevant
computation fresh inside the test.
"""

import cmath
import math
import time

import numpy as np
import pytest

from metaplectic.categories import builtin_category, check_consistency
from metaplectic.braidrep import general_generators, pair_tree_generators, rep_check
from metaplectic.gates import (cz_gate, hadamard, mult_gate, p_gate, q_gate,
                               sum_gate, x_gate, z_gate, equal_up_to_phase)
from metaplectic.protocol import (estimate_flip_success, exact_flip_curve,
                                  exact_flip_probability)
from metaplectic.synthesis import (eval_word, group_closure, named_words,
                                   verify_identity, word_from_text)
from metaplectic.trees import block_comb_tree, block_embedding, enumerate_basis, pair_tree
from metaplectic.witnesses import (imprimitivity_witness, infinite_order_witness,
                                   qupit_subspace_chain, qutrit_commutator_witness,
                                   qutrit_fixed_vector, so5_partial_results)

GAMMA = cmath.exp(1j * math.pi / 12)
OMEGA = cmath.exp(2j * math.pi / 3)


def _report(k, name):
    print(f"ACCEPTANCE {k} ({name}): PASS")


@pytest.fixture(scope="module")
def su24():
    return builtin_category("su2_4")


@pytest.fixture(scope="module")
def so52():
    return builtin_category("so5_2")


@pytest.fixture(scope="module")
def qutrit_rep(su24):
    return pair_tree_generators(su24, "eps", "y")


@pytest.fixture(scope="module")
def qupit_rep(so52):
    return pair_tree_generators(so52, "eps", "y1")


def test_criterion_1_data_consistency(su24):
    start = time.monotonic()
    report = check_consistency(su24)
    elapsed = time.monotonic() - start
    assert report.pentagon_max < 1e-9
    assert report.pentagon_skipped == 0
    assert report.unitarity_max < 1e-9
    assert report.r_modulus_max < 1e-12
    assert elapsed < 10.0
    _report(1, "SU(2)_4 data consistency")


def test_criterion_2_matrix_reproduction(su24, so52, qutrit_rep, qupit_rep):
    diag_a = 0.5 + math.sqrt(3) / 6 * 1j
    off_b = -0.5 + math.sqrt(3) / 6 * 1j
    qutrit_expected = (
        GAMMA * np.diag([1, OMEGA, 1]),
        GAMMA * np.array([[diag_a, off_b, off_b], [off_b, diag_a, off_b],
                          [off_b, off_b, diag_a]]),
        GAMMA * np.diag([1, 1, OMEGA]),
    )
    for built, expected in zip(qutrit_rep.generators, qutrit_expected):
        assert abs(built - expected).max() < 1e-9

    w5 = cmath.exp(2j * math.pi / 5)
    exps = [[0, -1, 1, 1, -1], [-1, 0, -1, 1, 1], [1, -1, 0, -1, 1],
            [1, 1, -1, 0, -1], [-1, 1, 1, -1, 0]]
    qupit_expected = (
        np.diag([w5, 1, w5, w5 ** -1, w5 ** -1]) / 1j,
        np.array([[w5 ** e for e in row] for row in exps]) / (math.sqrt(5) * 1j),
        np.diag([w5, w5 ** -1, w5 ** -1, w5, 1]) / 1j,
    )
    for built, expected in zip(qupit_rep.generators, qupit_expected):
        assert abs(built - expected).max() < 1e-9

    qubit_rep = pair_tree_generators(su24, "1", "0")
    qubit_expected = (
        np.diag([OMEGA, 1.0]),
        OMEGA.conjugate() * np.array(
            [[-0.5 + math.sqrt(3) / 6 * 1j, math.sqrt(6) / 3 * 1j],
             [math.sqrt(6) / 3 * 1j, -0.5 - math.sqrt(3) / 6 * 1j]]),
        np.diag([OMEGA, 1.0]),
    )
    for built, expected in zip(qubit_rep.generators, qubit_expected):
        ok, _ = equal_up_to_phase(built, expected, tol=1e-9)
        assert ok  # one free global phase per generator
    _report(2, "printed generator matrices")


def test_criterion_3_closed_formula_cross_check(su24, so52, qutrit_rep, qupit_rep):
    for cat, closed, leaf, total in ((su24, qutrit_rep, "eps", "y"),
                                     (so52, qupit_rep, "eps", "y1")):
        move_based = general_generators(cat, enumerate_basis(cat, pair_tree(cat, leaf, total)))
        for a, b in zip(move_based.generators, closed.generators):
            assert abs(a - b).max() < 1e-9
    _report(3, "move engine vs closed formulas")


def test_criterion_4_braid_relations(su24, so52, qutrit_rep, qupit_rep):
    start = time.monotonic()
    reps = [qutrit_rep, qupit_rep,
            pair_tree_generators(su24, "1", "0"),
            general_generators(su24, enumerate_basis(
                su24, block_comb_tree(su24, "1", 2, "2")))]
    assert reps[-1].dim == 27
    for rep in reps:
        report = rep_check(rep)
        assert report.unitarity_max < 1e-9
        assert report.braid_max < 1e-9
        assert report.far_commutation_max < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(4, "braid and far-commutation relations")


def test_criterion_5_gate_identities(qutrit_rep):
    words = named_words("su2_4")
    tol = 1e-8
    h_braided = eval_word(qutrit_rep, words["Hword"])
    assert equal_up_to_phase(h_braided, hadamard(3), tol)[0]

    p_squared = eval_word(qutrit_rep, words["p"] ** 2)
    q_squared = eval_word(qutrit_rep, words["q"] ** 2)
    swap01 = -np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    swap02 = -np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    assert equal_up_to_phase(p_squared, swap01, tol)[0]
    assert equal_up_to_phase(q_squared, swap02, tol)[0]

    assert equal_up_to_phase(qutrit_rep.sigma(1), q_gate(3, 1), tol)[0]
    assert equal_up_to_phase(qutrit_rep.sigma(3), q_gate(3, 2), tol)[0]

    eye = np.eye(3)
    sum_built = (np.kron(eye, h_braided) @ cz_gate(3).conj().T
                 @ np.kron(eye, h_braided.conj().T))
    assert equal_up_to_phase(sum_built, sum_gate(3), tol)[0]
    _report(5, "qutrit braiding gate inventory")


def test_criterion_6_leakage_free_controlled_z(su24):
    basis = enumerate_basis(su24, block_comb_tree(su24, "1", 2, "2"))
    rep = general_generators(su24, basis)
    embed, _, _ = block_embedding(su24, "1", "2", 2, "2")
    result = verify_identity(rep, named_words("su2_4")["CZword"], cz_gate(3),
                             subspace=embed, tol=1e-8)
    assert result.passed
    assert result.residual < 1e-8
    assert result.leakage < 1e-8
    _report(6, "leakage-free controlled-Z")


def test_criterion_7_group_orders(su24, qutrit_rep, qupit_rep):
    start = time.monotonic()
    projective = group_closure(qutrit_rep.generators, projective=True)
    assert projective.order == 216
    linear = group_closure(qutrit_rep.generators, projective=False)
    assert linear.order == 648
    assert linear.center_size == 3
    qubit_rep = pair_tree_generators(su24, "1", "0")
    assert group_closure(qubit_rep.generators, projective=True).order == 12
    assert group_closure(qubit_rep.generators, projective=False).order == 24
    assert group_closure(qupit_rep.generators, projective=True, cap=10000).order == 3000
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(7, "group image orders")


def test_criterion_8_so5_gate_words(qupit_rep):
    cases = [
        ("-1 -3 2 2 -1 -3", hadamard(5)),
        ("1 -3", z_gate(5)),
        ("1 2 -1 -1 3 3 -2 -1", x_gate(5)),
        ("1 1 -2 -2 -1 -3 2 1", mult_gate(5, 2)),
        ("1 1 -2 1 3 2 2 3", mult_gate(5, 3)),
        ("1 2 1 3 2 1", mult_gate(5, 4)),
    ]
    for text, target in cases:
        result = verify_identity(qupit_rep, word_from_text(text, 4), target, tol=1e-8)
        assert result.passed, text
    classical = group_closure([x_gate(5), mult_gate(5, 2), mult_gate(5, 3),
                               mult_gate(5, 4)], projective=False,
                              det_lift=False, cap=1000)
    assert classical.order == 20
    _report(8, "SO(5)_2 gate words and classical subgroup")


def test_criterion_9_density_witnesses():
    expected = np.array(sorted([(2 + 1j * np.sqrt(5)) / 3, 1.0,
                                (2 - 1j * np.sqrt(5)) / 3], key=np.angle))
    for i in range(3):
        report = qutrit_commutator_witness(i)
        assert abs(report.eigenvalues_w - expected).max() < 1e-9
        assert abs(report.eigenvalues_z - expected).max() < 1e-9
        ref = qutrit_fixed_vector(i)
        ref = ref / np.linalg.norm(ref)
        assert abs(abs(np.vdot(ref, report.fixed_vector)) - 1.0) < 1e-9

    assert imprimitivity_witness(sum_gate(3), 3).schmidt_rank == 3
    assert imprimitivity_witness(sum_gate(5), 5).schmidt_rank == 5

    for p in (5, 7):
        assert qupit_subspace_chain(p).passed()

    partial = so5_partial_results(k_max=10000, delta=1e-6)
    assert partial.fix_residual < 1e-8
    assert partial.infinite_order_passed
    _report(9, "density witnesses")


def test_criterion_10_flip_protocol():
    start = time.monotonic()
    curve = exact_flip_curve(10)
    for n in range(1, 11):
        # exact rational chain vs closed form, then its float image
        assert curve[n - 1] == exact_flip_probability(n)
        assert abs(float(curve[n - 1]) - (1.0 - (2.0 / 3.0) ** n)) < 1e-12
    trials = 100000
    rows = estimate_flip_success(trials, 10, seed=20260810)
    for row in rows:
        sigma = max(math.sqrt(row.p_exact * (1 - row.p_exact) / trials), 1e-12)
        assert abs(row.p_hat - row.p_exact) <= 3 * sigma, row
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(10, "flip protocol success curve")


def test_criterion_11_two_qubit_transformation(su24):
    basis = enumerate_basis(su24, block_comb_tree(su24, "1", 2, "0"))
    rep = general_generators(su24, basis)
    word_matrix = eval_word(rep, named_words("su2_4")["CZword"])
    embed0, _, _ = block_embedding(su24, "1", "0", 2, "0")
    embed4, _, _ = block_embedding(su24, "1", "4", 2, "0")
    images = word_matrix @ embed0
    for k in range(3):
        assert abs(images[:, k] - embed0[:, k]).max() < 1e-8
    target = -0.5 * embed0[:, 3] + (math.sqrt(3) / 2 * 1j) * embed4[:, 0]
    assert abs(images[:, 3] - target).max() < 1e-8
    branch_probability = abs(np.vdot(embed4[:, 0], images[:, 3])) ** 2
    assert abs(branch_probability - 0.75) < 1e-8  # |sqrt(3) i / 2|^2
    _report(11, "two-qubit transformation with charge-4 leakage")
