"""Braid words, identity verification, and group closure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic import synthesis
from metaplectic.categories import builtin_category
from metaplectic.braidrep import BraidRep, general_generators, pair_tree_generators
from metaplectic.gates import (cz_gate, hadamard, mult_gate, p_gate, q_gate,
                               sum_gate, x_gate, z_gate, equal_up_to_phase)
from metaplectic.synthesis import (BraidWord, eval_word, group_closure,
                                   named_words, verify_identity, word_from_text)
from metaplectic.trees import (block_comb_tree, block_embedding, comb_tree, enumerate_basis,
                               parse_shape)
from metaplectic.triples import _nonzeros


@pytest.fixture(scope="module")
def qutrit_rep():
    return pair_tree_generators(builtin_category("su2_4"), "eps", "y")


@pytest.fixture(scope="module")
def qupit_rep():
    return pair_tree_generators(builtin_category("so5_2"), "eps", "y1")


@pytest.fixture(scope="module")
def two_qutrit():
    cat = builtin_category("su2_4")
    basis = enumerate_basis(cat, block_comb_tree(cat, "1", 2, "2"))
    rep = general_generators(cat, basis)
    embed, _, _ = block_embedding(cat, "1", "2", 2, "2")
    return rep, embed


def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(4, (0,))
    with pytest.raises(ValueError):
        BraidWord(4, (4,))
    assert word_from_text("3 2 -3", 4).letters == (3, 2, -3)


def test_empty_word_is_identity(qutrit_rep):
    assert abs(eval_word(qutrit_rep, BraidWord(4, ())) - np.eye(3)).max() == 0.0


def test_strand_mismatch(qutrit_rep):
    with pytest.raises(ValueError):
        eval_word(qutrit_rep, BraidWord(8, (7,)))


_REP = pair_tree_generators(builtin_category("su2_4"), "eps", "y")
_LETTERS = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=8)


@settings(max_examples=40, deadline=None)
@given(_LETTERS, _LETTERS)
def test_eval_word_is_homomorphism(letters1, letters2):
    w1, w2 = BraidWord(4, tuple(letters1)), BraidWord(4, tuple(letters2))
    lhs = eval_word(_REP, w1 * w2)
    rhs = eval_word(_REP, w1) @ eval_word(_REP, w2)
    assert abs(lhs - rhs).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(_LETTERS)
def test_word_times_inverse_is_identity(letters):
    word = BraidWord(4, tuple(letters))
    out = eval_word(_REP, word * word.inverse())
    assert abs(out - np.eye(3)).max() < 1e-10


ZIGZAG12 = "((1 (1 (1 (1 (1 1))))) (((((1 1) 1) 1) 1) 1))->2"


def dense_eval_word(rep, word):
    """The dense loop that ``eval_word`` replaced: one dim^3 matmul per letter."""
    out = np.eye(rep.dim, dtype=complex)
    for letter in word.letters:
        gen = rep.generators[abs(letter) - 1]
        out = out @ (gen if letter > 0 else gen.conj().T)
    return out


@pytest.fixture(scope="module")
def word_reps():
    """(label, rep) over su2_4 combs n = 2..12 with leaves 1 and 3 and every
    total (empty spaces included), the block-8 and block-12 shapes, the
    12-leaf zigzag, the pair-tree models, the so5_2 4-comb, and
    non-symmetric copies of three of them."""
    su24, so52 = builtin_category("su2_4"), builtin_category("so5_2")
    reps = [("qutrit", pair_tree_generators(su24, "1", "2")),
            ("qubit", pair_tree_generators(su24, "1", "0")),
            ("qupit", pair_tree_generators(so52, "eps", "y1"))]
    shapes = [(f"comb{n}-{leaf}-{total}", su24, comb_tree(su24, [leaf] * n, total))
              for leaf in ("1", "3") for n in range(2, 13) for total in su24.labels]
    shapes += [("block8", su24, block_comb_tree(su24, "1", 2, "2")),
               ("block12", su24, block_comb_tree(su24, "1", 3, "2")),
               ("zigzag12", su24, parse_shape(su24, ZIGZAG12))]
    shapes += [(f"so5_2-comb4-{total}", so52, comb_tree(so52, ["eps"] * 4, total))
               for total in ("y1", "y2")]
    reps += [(label, general_generators(cat, enumerate_basis(cat, shape)))
             for label, cat, shape in shapes]
    # every generator above is a symmetric matrix (the F-matrices are real);
    # conjugating by diagonal phases breaks that and keeps the nonzeros
    rng = np.random.default_rng(7)
    for label, rep in [r for r in reps if r[0] in ("qupit", "comb7-1-1", "zigzag12")]:
        phases = np.exp(2j * np.pi * rng.random(rep.dim))
        twisted = tuple(_nonzeros(phases[:, None] * g * phases.conj()) for g in rep.generators)
        reps.append((f"{label}-twisted", BraidRep(rep.cat, rep.basis, twisted)))
    return reps


def test_eval_word_matches_dense_reference(word_reps):
    """Every generator and its inverse once, then random letters."""
    rng = np.random.default_rng(6)
    empty = 0
    for label, rep in word_reps:
        n = rep.n_strands
        every = list(range(1, n)) + list(range(-1, -n, -1))
        tail = rng.integers(1, n, size=24) * rng.choice([-1, 1], size=24)
        word = BraidWord(n, tuple(every) + tuple(int(x) for x in tail))
        fast, slow = eval_word(rep, word), dense_eval_word(rep, word)
        assert fast.shape == slow.shape == (rep.dim, rep.dim), label
        assert abs(fast - slow).max(initial=0.0) < 1e-13, label
        assert np.array_equal(eval_word(rep, BraidWord(n, ())), np.eye(rep.dim)), label
        empty += rep.dim == 0
    assert len(word_reps) == 121 and empty > 0


def test_eval_word_factor_choice(word_reps, monkeypatch):
    """Letters with few nonzeros per column are applied by row gathers; a
    generator too full for that (zigzag sigma_6) takes a dense matmul."""
    dense_calls = []
    dense = synthesis._dense
    monkeypatch.setattr(synthesis, "_dense",
                        lambda *args: dense_calls.append(args) or dense(*args))
    reps = dict(word_reps)
    for label, dense_expected in [("comb12-1-2", False), ("zigzag12", True)]:
        rep = reps[label]
        dense_calls.clear()
        word = BraidWord(12, tuple(range(1, 12)) + tuple(range(-1, -12, -1)))
        assert abs(eval_word(rep, word) - dense_eval_word(rep, word)).max() < 1e-13
        assert len(dense_calls) == 2 * dense_expected, label  # sigma_6 and its inverse


def test_p_and_q_squares(qutrit_rep):
    words = named_words("su2_4")
    p2 = eval_word(qutrit_rep, words["p"] ** 2)
    q2 = eval_word(qutrit_rep, words["q"] ** 2)
    swap01 = -np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    swap02 = -np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    assert equal_up_to_phase(p2, swap01)[0]
    assert equal_up_to_phase(q2, swap02)[0]


def test_braided_hadamard(qutrit_rep):
    w3 = np.exp(2j * np.pi / 3)
    target = np.array([[1, 1, 1], [1, w3, w3 ** 2], [1, w3 ** 2, w3]],
                      dtype=complex) / (np.sqrt(3) * 1j)
    built = eval_word(qutrit_rep, named_words("su2_4")["Hword"])
    ok, _ = equal_up_to_phase(built, target)
    assert ok
    assert equal_up_to_phase(built, hadamard(3))[0]


def test_sigma1_sigma3_are_q_gates(qutrit_rep):
    assert equal_up_to_phase(qutrit_rep.sigma(1), q_gate(3, 1))[0]
    assert equal_up_to_phase(qutrit_rep.sigma(3), q_gate(3, 2))[0]


def test_sum_gate_from_braiding(qutrit_rep):
    h_braided = eval_word(qutrit_rep, named_words("su2_4")["Hword"])
    eye = np.eye(3)
    built = np.kron(eye, h_braided) @ cz_gate(3).conj().T @ np.kron(eye, h_braided.conj().T)
    assert equal_up_to_phase(built, sum_gate(3))[0]


def test_controlled_z_leakage_free(two_qutrit):
    rep, embed = two_qutrit
    result = verify_identity(rep, named_words("su2_4")["CZword"], cz_gate(3),
                             subspace=embed, tol=1e-8)
    assert result.passed
    assert result.residual < 1e-8
    assert result.leakage < 1e-8


def test_so52_gate_words(qupit_rep):
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


def test_verify_identity_reports_failure(qutrit_rep):
    result = verify_identity(qutrit_rep, named_words("su2_4")["p"], hadamard(3))
    assert not result.passed
    assert result.residual > 1e-3


def test_group_orders_su24_qutrit(qutrit_rep):
    projective = group_closure(qutrit_rep.generators, projective=True)
    assert projective.order == 216
    linear = group_closure(qutrit_rep.generators, projective=False)
    assert linear.order == 648
    assert linear.center_size == 3
    assert sum(projective.element_orders.values()) == 216
    assert sum(linear.element_orders.values()) == 648


def test_group_orders_su24_qubit():
    rep = pair_tree_generators(builtin_category("su2_4"), "1", "0")
    assert group_closure(rep.generators, projective=True).order == 12
    assert group_closure(rep.generators, projective=False).order == 24


def test_group_order_so52_qupit(qupit_rep):
    result = group_closure(qupit_rep.generators, projective=True, cap=10000)
    assert result.order == 3000  # 25 * 120, the affine symplectic count for d=5


def test_classical_subgroup_order_20():
    gens = [x_gate(5), mult_gate(5, 2), mult_gate(5, 3), mult_gate(5, 4)]
    result = group_closure(gens, projective=False, det_lift=False, cap=1000)
    assert result.order == 20
    assert group_closure(gens, projective=True, cap=1000).order == 20


def test_dense_pair_exceeds_cap():
    result = group_closure([hadamard(3), p_gate(3, 1)], projective=True, cap=3000)
    assert result.cap_exceeded
    assert result.order is None


def test_closure_rejects_non_positive_cap():
    for cap in (0, -5):
        with pytest.raises(ValueError, match="cap"):
            group_closure([x_gate(5)], cap=cap)
    assert group_closure([x_gate(5)], det_lift=False, cap=1).cap_exceeded


def test_closure_deterministic(qutrit_rep):
    one = group_closure(qutrit_rep.generators, projective=True)
    two = group_closure(qutrit_rep.generators, projective=True)
    assert one.element_orders == two.element_orders


def test_two_qubit_block_transformation():
    cat = builtin_category("su2_4")
    basis = enumerate_basis(cat, block_comb_tree(cat, "1", 2, "0"))
    rep = general_generators(cat, basis)
    word_matrix = eval_word(rep, named_words("su2_4")["CZword"])
    embed0, _, _ = block_embedding(cat, "1", "0", 2, "0")
    embed4, _, _ = block_embedding(cat, "1", "4", 2, "0")
    images = word_matrix @ embed0
    for k in range(3):  # |0;00>|0;00>, |0;00>|0;22>, |0;22>|0;00> are fixed
        assert abs(images[:, k] - embed0[:, k]).max() < 1e-8
    target = -0.5 * embed0[:, 3] + (np.sqrt(3) / 2 * 1j) * embed4[:, 0]
    assert abs(images[:, 3] - target).max() < 1e-8
    assert abs(np.vdot(embed4[:, 0], images[:, 3])) ** 2 == pytest.approx(0.75, abs=1e-8)
