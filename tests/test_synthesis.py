"""Braid words, identity verification, and group closure."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic import synthesis
from metaplectic.categories import builtin_category
from metaplectic.braidrep import BraidRep, general_generators, pair_tree_generators
from metaplectic.gates import (cz_gate, hadamard, mult_gate, p_gate, q_gate,
                               sum_gate, x_gate, z_gate, equal_up_to_phase)
from metaplectic.synthesis import (BraidWord, ClosureResult, det_normalize, eval_word,
                                   group_closure, named_words, phase_canonical,
                                   verify_identity, word_from_text)
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


@pytest.mark.parametrize("n_strands, letters, bad", [
    (4, (1.5,), "1.5"), (4, (2, 1.0), "1.0"), (4, ("1",), "'1'"), (4.0, (1,), "4.0"),
    (4, (True, -1), "True"), (True, (1,), "True")])
def test_word_rejects_non_integers(n_strands, letters, bad):
    with pytest.raises(ValueError, match=f"^{bad} is not an integer$"):
        BraidWord(n_strands, letters)
    assert BraidWord(np.int64(4), (np.int32(3), -1)).letters == (3, -1)


def test_word_stores_python_int_tuples():
    word = BraidWord(4, (1, 2, -3))
    for same in (BraidWord(4, [1, 2, -3]),
                 BraidWord(np.int64(4), (np.int32(1), np.int64(2), np.int8(-3)))):
        assert same == word and hash(same) == hash(word) and str(same) == "1 2 -3"
        assert type(same.n_strands) is int and type(same.letters) is tuple
        assert all(type(letter) is int for letter in same.letters)


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


def one_array_eval_word(rep, word):
    """``eval_word`` as one array in the calling thread, the reference for
    its column panels."""
    actions = {letter: synthesis._letter_action(rep.dim, *synthesis._letter_factor(rep, letter))
               for letter in set(word.letters)}
    held = np.eye(rep.dim, dtype=complex)
    # every letter writes into preallocated arrays: at dim 243 a fresh
    # array per step can cost more in page faults than the arithmetic
    new, scratch = np.empty_like(held), np.empty_like(held)
    for letter in word.letters:
        actions[letter](held, new, scratch)
        held, new = new, held
    return np.ascontiguousarray(held.T)


def _random_word(rng, n, length):
    letters = rng.integers(1, n, size=length) * rng.choice([-1, 1], size=length)
    return BraidWord(n, tuple(int(x) for x in letters))


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
        reps.append((f"{label}-twisted", BraidRep(rep.n_strands, rep.dim, twisted)))
    return reps


def test_eval_word_matches_dense_reference(word_reps):
    """Every generator and its inverse once, then random letters: close to
    the dense loop, and bit-identical to the one-array loop, on every rep
    (the dim-243 ones take several panels, except block12 and zigzag12,
    whose dense letters keep one); the empty word gives the identity."""
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
        assert np.array_equal(fast, one_array_eval_word(rep, word)), label
        assert np.array_equal(eval_word(rep, BraidWord(n, ())), np.eye(rep.dim)), label
        empty += rep.dim == 0
    assert len(word_reps) == 121 and empty > 0


def test_eval_word_factor_choice(word_reps, monkeypatch):
    """Letters with few nonzeros per column are applied by row gathers; a
    generator too full for that (zigzag sigma_6) takes a dense matmul.
    Only a word of gathers on a rep past dim 181 is split into panels."""
    dense_calls, panels = [], []
    dense, run_panels = synthesis._dense, synthesis._run_panels
    monkeypatch.setattr(synthesis, "_dense",
                        lambda *args: dense_calls.append(args) or dense(*args))
    monkeypatch.setattr(synthesis, "_run_panels",
                        lambda *args: panels.extend(args[2]) or run_panels(*args))
    reps = dict(word_reps)
    for label, dense_expected, one_panel in [("comb10-1-2", False, True),
                                             ("comb12-1-2", False, False),
                                             ("zigzag12", True, True)]:
        rep, n = reps[label], reps[label].n_strands
        dense_calls.clear()
        panels.clear()
        word = BraidWord(n, tuple(range(1, n)) + tuple(range(-1, -n, -1)))
        assert abs(eval_word(rep, word) - dense_eval_word(rep, word)).max() < 1e-13
        assert len(dense_calls) == 2 * dense_expected, label  # sigma_6 and its inverse
        assert (panels == [(0, rep.dim)]) == one_panel, label


@pytest.mark.parametrize("label, need", [
    ("comb12-1-2", 16 * 243 * (243 + 3 * 2 * 122)),  # two panels of 122 columns, two workers
    ("zigzag12", 16 * 243 * 243 * 4),  # a dense letter: one panel of three dim^2 buffers
])
def test_eval_word_budget(word_reps, label, need, monkeypatch):
    """The result and the panel buffers must fit ``_CLOSURE_BYTES``; past
    it the word is refused before any letter is built."""
    rep = dict(word_reps)[label]
    word = BraidWord(rep.n_strands, tuple(range(1, rep.n_strands)))
    monkeypatch.setattr(synthesis, "_workers", lambda: 2)
    expected = eval_word(rep, word)
    monkeypatch.setattr(synthesis, "_CLOSURE_BYTES", need)
    assert np.array_equal(eval_word(rep, word), expected)
    monkeypatch.setattr(synthesis, "_CLOSURE_BYTES", need - 1)
    monkeypatch.setattr(synthesis, "_letter_action", lambda *args: pytest.fail("a letter ran"))
    with pytest.raises(ValueError, match=f"dim-243 rep needs {need / 2 ** 30:.1f} GiB"):
        eval_word(rep, word)


@pytest.fixture(scope="module")
def panel_reps():
    """The su2_4 combs of 13 and 14 `1` leaves, dims 365 and 729, with a
    40-letter word each."""
    cat, rng = builtin_category("su2_4"), np.random.default_rng(13)
    out = []
    for n, total in ((13, "1"), (14, "2")):
        rep = general_generators(cat, enumerate_basis(cat, comb_tree(cat, ["1"] * n, total)))
        out.append((rep, _random_word(rng, n, 40)))
    assert [rep.dim for rep, _ in out] == [365, 729]
    return out


@pytest.mark.parametrize("workers", [None, 1, 2, 3])
def test_eval_word_panels_are_bit_identical(panel_reps, workers, monkeypatch):
    """Several panels on several threads give the one-array loop's bits, for
    the machine's worker count and for 1, 2 and 3 workers, with the
    threads switched often."""
    if workers is not None:
        monkeypatch.setattr(synthesis, "_workers", lambda: workers)
    expected_workers = workers or synthesis._workers()
    run_panels, calls = synthesis._run_panels, []

    def spy(steps, out, panels, buffers):
        calls.append((threading.get_ident(), len(panels)))
        run_panels(steps, out, panels, buffers)

    monkeypatch.setattr(synthesis, "_run_panels", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, as a race would need
    try:
        for rep, word in panel_reps:
            calls.clear()
            assert np.array_equal(eval_word(rep, word), one_array_eval_word(rep, word))
            assert len({ident for ident, _ in calls}) == len(calls) == expected_workers
            count = sum(n for _, n in calls)
            assert count > 1 and count % expected_workers == 0
    finally:
        sys.setswitchinterval(interval)


def test_eval_word_leaves_no_thread_running(panel_reps, monkeypatch):
    rep, word = panel_reps[1]
    before = threading.active_count()
    expected = eval_word(rep, word)
    assert threading.active_count() == before
    # a worker's failure reaches the caller once every thread is joined
    monkeypatch.setattr(synthesis, "_workers", lambda: 3)
    run_panels = synthesis._run_panels

    def fail_off_main(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker failed")
        run_panels(*args)

    monkeypatch.setattr(synthesis, "_run_panels", fail_off_main)
    with pytest.raises(RuntimeError, match="worker failed"):
        eval_word(rep, word)
    assert threading.active_count() == before
    monkeypatch.setattr(synthesis, "_run_panels", run_panels)
    assert np.array_equal(eval_word(rep, word), expected)


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
    result = verify_identity(rep, named_words("su2_4")["CZword"], cz_gate(3), subspace=embed)
    assert result.passed
    assert result.residual < 1e-8
    assert result.leakage < 1e-8


def test_verify_identity_subspace_message_states_sizes(two_qutrit):
    rep, embed = two_qutrit
    with pytest.raises(ValueError, match=r"subspace 27 x 9, target 3 x 3, rep dim 27$"):
        verify_identity(rep, named_words("su2_4")["CZword"], hadamard(3), subspace=embed)


@pytest.mark.parametrize("scale", [0, 2])
def test_verify_identity_refuses_a_subspace_that_is_not_an_isometry(two_qutrit, scale,
                                                                    monkeypatch):
    """A zero or doubled E raises before the word is evaluated: E = 0 would
    pass any word with residual and leakage 0."""
    rep, embed = two_qutrit
    monkeypatch.setattr(synthesis, "eval_word", lambda *args: pytest.fail("word evaluated"))
    with pytest.raises(ValueError, match="not orthonormal"):
        verify_identity(rep, word_from_text("1 2 3", 8), cz_gate(3), subspace=scale * embed)


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
        result = verify_identity(qupit_rep, word_from_text(text, 4), target)
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


# ---------------------------------------------------------------------------
# group closure: the product-by-product loop it replaced, kept as the reference


def _loop_key(u, grid=1e-6):
    q = np.round(u / grid)
    return (q.real.astype(np.int64).tobytes(), q.imag.astype(np.int64).tobytes())


def loop_group_closure(generators, projective=False, cap=100000, det_lift=True):
    """The breadth-first closure with one Python iteration per (element,
    generator) pair that the level-synchronous ``group_closure`` replaced."""
    if cap < 1:
        raise ValueError(f"cap must be at least 1 (got {cap})")
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    dim = gens[0].shape[0]
    if any(g.shape != (dim, dim) for g in gens):
        raise ValueError("generators must share one dimension")
    if not projective and det_lift:
        gens = [det_normalize(g) for g in gens]
    canon = phase_canonical if projective else (lambda u: u)

    identity = canon(np.eye(dim, dtype=complex))
    elements = {_loop_key(identity): identity}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for cur in frontier:
            for gen in gens:
                new = canon(cur @ gen)
                key = _loop_key(new)
                known = elements.get(key)
                if known is None:
                    if len(elements) >= cap:
                        return ClosureResult(None, True, None, None)
                    elements[key] = new
                    next_frontier.append(new)
                elif abs(known - new).max() > 1e-4:
                    raise RuntimeError("hash grid collision between distinct elements")
        frontier = next_frontier

    members = list(elements.values())
    same = (lambda a, b: equal_up_to_phase(a, b)[0]) if projective \
        else (lambda a, b: abs(a - b).max() < 1e-8)
    center = sum(1 for el in members if all(same(el @ g, g @ el) for g in gens))
    eye = np.eye(dim, dtype=complex)
    histogram = {}
    for el in members:
        power = el
        order = 1
        while not same(power, eye):
            power = power @ el
            order += 1
            if order > len(members):
                raise RuntimeError("element order exceeds group order; inconsistent closure")
        histogram[order] = histogram.get(order, 0) + 1
    return ClosureResult(len(members), False, center, histogram)


def _closure_cases():
    cat = builtin_category("su2_4")
    qutrit = pair_tree_generators(cat, "eps", "y").generators
    qubit = pair_tree_generators(cat, "1", "0").generators
    qupit = pair_tree_generators(builtin_category("so5_2"), "eps", "y1").generators
    classical = [x_gate(5), mult_gate(5, 2), mult_gate(5, 3), mult_gate(5, 4)]
    return [
        ("qutrit-proj", qutrit, dict(projective=True)),
        ("qutrit-lin", qutrit, dict()),
        ("qubit-proj", qubit, dict(projective=True)),
        ("qubit-lin", qubit, dict()),
        ("qupit-proj", qupit, dict(projective=True, cap=10000)),
        ("qupit-proj-cap3000", qupit, dict(projective=True, cap=3000)),
        ("qupit-proj-cap2999", qupit, dict(projective=True, cap=2999)),
        ("classical-lin", classical, dict(det_lift=False, cap=1000)),
        ("classical-proj", classical, dict(projective=True, cap=1000)),
        ("H3,P3[1]-cap3000", [hadamard(3), p_gate(3, 1)], dict(projective=True, cap=3000)),
        ("X5-cap1", [x_gate(5)], dict(det_lift=False, cap=1)),
    ]


def test_level_closure_matches_the_loop_closure():
    """Same order, cap verdict, center and element-order histogram on every
    paper closure and at the cap boundaries (the 15000-element qupit
    linear closure is left out: the loop takes seconds on it)."""
    finished = 0
    for label, gens, kwargs in _closure_cases():
        fast, slow = group_closure(gens, **kwargs), loop_group_closure(gens, **kwargs)
        assert fast == slow, label
        finished += not fast.cap_exceeded
    assert finished == 8


# ---------------------------------------------------------------------------
# group closure: the center and element orders on stacked matrices, which the
# integer walks on the Cayley table replaced, kept as the reference


def stacked_group_closure(generators, projective=False, cap=100000, det_lift=True):
    """``_bfs``'s elements, then the center (2 |gens| products per element)
    and the element orders (stacked powers, each compared with the
    identity) computed on blocks of ``_CHUNK`` matrices."""
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if not projective and det_lift:
        gens = [det_normalize(g) for g in gens]
    gens = np.array(gens)
    found = synthesis._bfs(gens, phase_canonical if projective else (lambda u: u), cap)
    if found is None:
        return ClosureResult(None, True, None, None)
    members = found.members
    if projective:
        def same(a, b):
            return synthesis.phase_distance(a, b)[0] < 1e-8
    else:
        def same(a, b):
            return abs(a - b).max(axis=(-2, -1)) < 1e-8
    center, orders = 0, []
    chunk = synthesis._CHUNK
    for block in np.split(members, range(chunk, len(members), chunk)):
        central = np.ones(len(block), dtype=bool)
        for g in gens:  # g @ block[i] is (block[i]^T @ g^T)^T
            central &= same(synthesis._times(block, g),
                            synthesis._times(block.swapaxes(1, 2), g.T).swapaxes(1, 2))
        center += int(central.sum())
        orders.append(stacked_element_orders(block, same, len(members)))
    values, counts = np.unique(np.concatenate(orders), return_counts=True)
    return ClosureResult(len(members), False, center, dict(zip(values.tolist(), counts.tolist())))


def stacked_element_orders(block, same, bound):
    """All of ``block`` raised to successive powers at once; an element
    leaves the stack when its power is ``same`` as the identity."""
    eye = np.eye(block.shape[-1], dtype=complex)
    orders = np.zeros(len(block), dtype=np.int64)
    live, power, order = np.arange(len(block)), block, 1
    while True:
        done = same(power, np.broadcast_to(eye, power.shape))
        orders[live[done]] = order
        live, power = live[~done], power[~done]
        if not len(live):
            return orders
        power = power @ block[live]
        order += 1
        if order > bound:
            raise RuntimeError("element order exceeds group order; inconsistent closure")


def test_table_closure_matches_the_stacked_reference():
    """``==`` results on every case of the loop comparison; the Haar test
    below compares the 15000-element linear qupit closure and the
    conjugated closures."""
    for label, gens, kwargs in _closure_cases():
        assert group_closure(gens, **kwargs) == stacked_group_closure(gens, **kwargs), label


def test_closure_of_larger_matrices_takes_smaller_batches():
    """Past d = 5 a batch is cut to about 200 kB of products (25 rows of 2
    generators at d = 16); the search, the walks and the certificates must
    still agree with both references."""
    assert synthesis._batch_rows(2, 16) == 25 and synthesis._batch_rows(3, 5) == 170
    gens = [x_gate(16), z_gate(16)]
    for kwargs in (dict(projective=True), dict(det_lift=False, cap=5000)):
        result = group_closure(gens, **kwargs)
        assert result == loop_group_closure(gens, **kwargs) == stacked_group_closure(gens, **kwargs)
        assert result.order == (256 if kwargs.get("projective") else 4096)


def _haar(d, rng):
    """A Haar-random unitary: QR of a complex Gaussian with the phases of
    R's diagonal moved into Q."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / abs(np.diag(r)))


@pytest.mark.parametrize("model, projective, center, histogram", [
    ("qupit", True, 1, "1:1 2:25 3:500 4:750 5:624 6:500 10:600"),
    ("qupit", False, 5, "1:1 2:25 3:500 4:750 5:3124 6:500 10:3100 15:2000 20:3000 30:2000"),
    ("qutrit", True, 1, "1:1 2:9 3:80 4:54 6:72"),
    ("qutrit", False, 3, "1:1 2:9 3:170 4:54 6:18 9:72 12:108 18:216"),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_closure_is_invariant_under_haar_conjugation(qutrit_rep, qupit_rep, model, projective,
                                                     center, histogram, seed):
    """Conjugating by a generic unitary moves every entry off the lattice of
    the braid matrices, which exercises the 1e-6 key grid and the anchor
    tie-break; order, center and histogram must not move."""
    gens = (qupit_rep if model == "qupit" else qutrit_rep).generators
    v = _haar(len(gens[0]), np.random.default_rng(seed))
    plain = group_closure(gens, projective=projective, cap=20000)
    turned = group_closure([v @ g @ v.conj().T for g in gens], projective=projective, cap=20000)
    for result in (plain, turned):
        assert (result.center_size, result.histogram_text()) == (center, histogram)
        assert result.order == sum(result.element_orders.values())
    turned_reference = stacked_group_closure([v @ g @ v.conj().T for g in gens],
                                             projective=projective, cap=20000)
    assert turned == turned_reference
    if seed == 0:  # the plain closure does not depend on the seed
        assert plain == stacked_group_closure(gens, projective=projective, cap=20000)


@pytest.mark.parametrize("generators, projective, det_lift, message", [
    ([np.ones((2, 3))], False, True, "not a square matrix"),
    ([np.ones(3)], True, True, "not a square matrix"),
    ([np.full((2, 2), np.nan)], True, True, "non-finite"),
    ([np.array([[np.inf, 0], [0, 1]])], False, False, "non-finite"),
    ([np.zeros((3, 3))], False, True, "not unitary"),  # singular
    ([2 * np.eye(2)], False, False, "not unitary"),
    ([np.array([[1.0, 1.0], [0.0, 1.0]])], True, True, "not unitary"),
    ([x_gate(5), hadamard(3)], True, True, "share one nonzero dimension"),
    ([np.zeros((0, 0))], True, True, "share one nonzero dimension"),
])
def test_closure_rejects_generators_that_are_not_unitary(generators, projective, det_lift,
                                                         message):
    """NaN or singular generators used to fail as "element order exceeds
    group order", 2 I as a hash grid collision, and a shear returned
    ``cap_exceeded`` as if its group were merely large."""
    with pytest.raises(ValueError, match=message):
        group_closure(generators, projective=projective, det_lift=det_lift, cap=100)


def _filed_under_sigma_1(rep):
    """A key input that files the canonical sigma_2 and sigma_3 under
    sigma_1: three distinct elements with one key, first met side by side
    in the first batch."""
    sigma_1, *others = [phase_canonical(g) for g in rep.generators]

    def merged(u):
        u = u.copy()
        for other in others:
            u[abs(u - other).max(axis=(-2, -1)) < 1e-9] = sigma_1
        return u
    return merged


@pytest.mark.parametrize("merge", ["all", "sigmas"])
def test_closure_reports_a_hash_grid_collision(qutrit_rep, monkeypatch, merge):
    """Keys that merge distinct elements must be noticed, whether the
    element met is from an earlier batch (every matrix keyed like the
    identity) or from the same one (sigma_2 and sigma_3 keyed like
    sigma_1)."""
    coarse = (lambda u: u / 3e6) if merge == "all" else _filed_under_sigma_1(qutrit_rep)
    keys, loop_key = synthesis._keys, _loop_key
    monkeypatch.setattr(synthesis, "_keys", lambda stack: keys(coarse(stack)))
    monkeypatch.setitem(globals(), "_loop_key", lambda u: loop_key(coarse(u)))
    for closure in (group_closure, loop_group_closure):
        with pytest.raises(RuntimeError, match="hash grid collision"):
            closure(qutrit_rep.generators, projective=True)


def test_closure_rejects_an_element_order_past_the_group_order(qutrit_rep, monkeypatch):
    """A search that lost elements must not report orders larger than the
    group it found: here sigma_1, of order 3, in a 'group' of 2."""
    bfs = synthesis._bfs

    def lost(*args):  # the table still knows sigma_1^2, the stack holds 2 elements
        found = bfs(*args)
        return found._replace(members=found.members[:2])
    monkeypatch.setattr(synthesis, "_bfs", lost)
    with pytest.raises(RuntimeError, match="element order exceeds group order"):
        group_closure(qutrit_rep.generators, projective=True)


def test_bfs_finds_elements_in_product_by_product_order(qupit_rep):
    """Queue first, then generator, as a search one product at a time
    would, although the batches (at most 170 elements here) split levels
    of up to 772."""
    gens = np.array(qupit_rep.generators)
    found = synthesis._bfs(gens, phase_canonical, 10000).members
    expected = [phase_canonical(np.eye(5, dtype=complex))]
    keys = {_loop_key(expected[0])}
    for element in expected:  # the list grows while it is walked
        for g in gens:
            new = phase_canonical(element @ g)
            if _loop_key(new) not in keys:
                keys.add(_loop_key(new))
                expected.append(new)
    assert len(found) == len(expected) == 3000
    assert abs(found - np.array(expected)).max() < 1e-12


@pytest.mark.parametrize("model, projective", [("qutrit", True), ("qutrit", False),
                                               ("qupit", True)])
def test_bfs_table_and_tree_match_the_matrices(qutrit_rep, qupit_rep, model, projective):
    """members[table[x, g]] is canon(members[x] @ g), and each element is
    its BFS parent times its letter, one level deeper."""
    gens = (qupit_rep if model == "qupit" else qutrit_rep).generators
    canon = phase_canonical if projective else (lambda u: u)
    gens = np.array(gens if projective else [det_normalize(g) for g in gens])
    found = synthesis._bfs(gens, canon, 20000)
    members, table, parent, letter, depth = found
    n = len(members)
    assert n == {"qutrit": 216 if projective else 648, "qupit": 3000}[model]
    assert table.shape == (n, len(gens)) and parent.shape == letter.shape == depth.shape == (n,)
    for k, g in enumerate(gens):
        assert abs(members[table[:, k]] - canon(members @ g)).max() < 1e-12
    assert (parent[0], letter[0], depth[0]) == (0, len(gens), 0)
    assert (parent[1:] < np.arange(1, n)).all() and (depth[1:] == depth[parent[1:]] + 1).all()
    assert abs(members[1:] - canon(members[parent[1:]] @ gens[letter[1:]])).max() < 1e-12


def _corrupted(found, slot, generator, value):
    table = found.table.copy()
    table[slot, generator] = value
    return found._replace(table=table)


@pytest.mark.parametrize("change, message", [
    (lambda found: _corrupted(found, 0, 0, 0), "element order exceeds"),  # 1 sigma_1 = 1
    (lambda found: _corrupted(found, 105, 0, 0), "disagree on the center"),
    (lambda found: _corrupted(found, 5, 2, len(found.table)), "points past"),
    (lambda found: found._replace(**{k: v[:100] for k, v in found._asdict().items()}),
     "points past"),  # a truncated found set
])
def test_closure_rejects_a_corrupted_table(qutrit_rep, monkeypatch, change, message):
    """A table entry that the walks read and the matrices contradict, or one
    that leads out of the found set, raises before any answer is returned."""
    bfs = synthesis._bfs
    monkeypatch.setattr(synthesis, "_bfs", lambda *args: change(bfs(*args)))
    with pytest.raises(RuntimeError, match=message):
        group_closure(qutrit_rep.generators, projective=True)


def test_closure_certifies_orders_on_the_matrices(qutrit_rep, monkeypatch):
    """Walks that claim sigma_1 has order 2, or a second stored identity,
    are caught by the matrix certificates."""
    walk = synthesis._table_orders

    def short(*args):
        orders, inverses = walk(*args)
        orders[1], inverses[1] = 2, 1
        return orders, inverses
    monkeypatch.setattr(synthesis, "_table_orders", short)
    with pytest.raises(RuntimeError, match="power of its order"):
        group_closure(qutrit_rep.generators, projective=True)
    monkeypatch.setattr(synthesis, "_table_orders", walk)
    bfs = synthesis._bfs

    def twice(*args):  # an involution, its own inverse, stored as a second identity
        found = bfs(*args)
        left = synthesis._left_table(found)
        orders, _ = walk(left, found, len(found.members))
        members = found.members.copy()
        members[np.flatnonzero(orders == 2)[0]] = members[0]
        return found._replace(members=members)
    monkeypatch.setattr(synthesis, "_bfs", twice)
    with pytest.raises(RuntimeError, match="other than the first is the identity"):
        group_closure(qutrit_rep.generators, projective=True)
