"""Braid generator matrices: closed formulas, move engine, relations."""

import cmath
import dataclasses
import math
import time
import tracemalloc
from functools import cache, reduce

import numpy as np
import pytest

from metaplectic.categories import Category, MissingDataError, builtin_category
from metaplectic import triples
from metaplectic.triples import _nonzeros
from metaplectic import braidrep, trees
from metaplectic.braidrep import (BraidRep, RepReport, general_generators,
                                  pair_tree_generators, rep_check, shape_check)
from metaplectic.synthesis import BraidWord, eval_word
from metaplectic.trees import (TreeShape, block_comb_tree, comb_tree, enumerate_basis,
                               pair_tree, parse_shape, tree_change)

GAMMA = cmath.exp(1j * math.pi / 12)
OMEGA = cmath.exp(2j * math.pi / 3)


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


def qutrit_reference():
    diag_a = 0.5 + math.sqrt(3) / 6 * 1j
    off_b = -0.5 + math.sqrt(3) / 6 * 1j
    sigma2 = GAMMA * np.array([[diag_a, off_b, off_b],
                               [off_b, diag_a, off_b],
                               [off_b, off_b, diag_a]])
    return (GAMMA * np.diag([1, OMEGA, 1]), sigma2, GAMMA * np.diag([1, 1, OMEGA]))


def qupit_reference():
    w5 = cmath.exp(2j * math.pi / 5)
    sigma1 = np.diag([w5, 1, w5, w5 ** -1, w5 ** -1]) / 1j
    sigma3 = np.diag([w5, w5 ** -1, w5 ** -1, w5, 1]) / 1j
    exponents = [[0, -1, 1, 1, -1], [-1, 0, -1, 1, 1], [1, -1, 0, -1, 1],
                 [1, 1, -1, 0, -1], [-1, 1, 1, -1, 0]]
    sigma2 = np.array([[w5 ** e for e in row] for row in exponents]) / (math.sqrt(5) * 1j)
    return sigma1, sigma2, sigma3


def test_qutrit_generators_entrywise(qutrit_rep):
    for built, ref in zip(qutrit_rep.generators, qutrit_reference()):
        assert abs(built - ref).max() < 1e-12


def test_qupit_generators_entrywise(qupit_rep):
    for built, ref in zip(qupit_rep.generators, qupit_reference()):
        assert abs(built - ref).max() < 1e-12


def test_qubit_generators(su24):
    rep = pair_tree_generators(su24, "1", "0")
    sigma1_ref = GAMMA * np.diag([OMEGA, 1])
    sigma2_ref = GAMMA * OMEGA.conjugate() * np.array(
        [[-0.5 + math.sqrt(3) / 6 * 1j, math.sqrt(6) / 3 * 1j],
         [math.sqrt(6) / 3 * 1j, -0.5 - math.sqrt(3) / 6 * 1j]])
    assert abs(rep.sigma(1) - sigma1_ref).max() < 1e-12
    assert abs(rep.sigma(3) - sigma1_ref).max() < 1e-12
    assert abs(rep.sigma(2) - sigma2_ref).max() < 1e-12


def test_general_engine_matches_closed_formula(su24, so52, qutrit_rep, qupit_rep):
    cases = [(su24, qutrit_rep, "eps", "y"), (so52, qupit_rep, "eps", "y1"),
             (su24, pair_tree_generators(su24, "1", "0"), "1", "0")]
    for cat, closed, leaf, total in cases:
        move_based = general_generators(cat, enumerate_basis(cat, pair_tree(cat, leaf, total)))
        for a, b in zip(move_based.generators, closed.generators):
            assert abs(a - b).max() < 1e-9


def test_general_engine_matches_closed_formula_to_round_off(su24, so52, qutrit_rep,
                                                          qupit_rep):
    """The F-moves at the node where two strands meet give the closed form's
    sigma_2 to round-off on the three model pair trees; the twists of
    sibling strands are the same R phases."""
    for cat, closed, leaf, total in [(su24, qutrit_rep, "eps", "y"),
                                     (so52, qupit_rep, "eps", "y1"),
                                     (su24, pair_tree_generators(su24, "1", "0"), "1", "0")]:
        move_based = general_generators(cat, enumerate_basis(cat, pair_tree(cat, leaf, total)))
        for a, b in zip(move_based.generators, closed.generators):
            assert abs(a - b).max() <= 1e-15


def _f_entry(cat, a, b, c, d, n, m):
    """F[a,b,c;d]_{n,m}, zero-extended outside the admissible index sets.

    Raises MissingDataError only when the entry genuinely exists in the
    theory but is absent from a partial table.
    """
    rows = cat.f_rows(a, b, c, d)
    cols = cat.f_cols(a, b, c, d)
    if n not in rows or m not in cols:
        return 0.0
    return cat.f(a, b, c, d)[rows.index(n), cols.index(m)]


def reference_pair_tree_generators(cat, a, b):
    """The scalar loop that ``pair_tree_generators`` replaced: each sigma_2
    entry summed over v and w, one F lookup per term."""
    a, b = cat.resolve(a), cat.resolve(b)
    basis = enumerate_basis(cat, pair_tree(cat, a, b))
    states = basis.states
    signs = np.asarray(basis.signs, dtype=float)
    sigma1 = np.diag([cat.r(a, a, x) for x, _ in states]).astype(complex)
    sigma3 = np.diag([cat.r(a, a, y) for _, y in states]).astype(complex)
    sigma2 = np.zeros((basis.dim, basis.dim), dtype=complex)
    pair_charges = sorted(cat.fuse(a, a), key=cat.labels.index)
    for i, (x, y) in enumerate(states):
        for j, (xp, yp) in enumerate(states):
            acc = 0.0
            for v in cat.labels:
                left = np.conj(_f_entry(cat, x, a, a, b, v, y))
                right = _f_entry(cat, xp, a, a, b, v, yp)
                if left == 0.0 or right == 0.0:
                    continue
                mid = 0.0
                for w in pair_charges:
                    mid += (_f_entry(cat, a, a, a, v, x, w)
                            * cat.r(a, a, w)
                            * np.conj(_f_entry(cat, a, a, a, v, xp, w)))
                acc += left * mid * right
            sigma2[j, i] = acc
    sigma2 = signs[:, None] * sigma2 * signs[None, :]
    return BraidRep(4, basis.dim, tuple(_nonzeros(g) for g in (sigma1, sigma2, sigma3)))


def _pair_tree_outcome(build, cat, a, b):
    try:
        rep = build(cat, a, b)
    except MissingDataError as exc:
        return "missing", str(exc)
    return ("rep", rep) if rep.dim else ("empty", None)


def _phased(cat):
    """``cat`` with each stored F entry turned by a phase that depends on its
    row and column.  The stored F are real; on them a dropped conjugate or
    a transposed block would go unseen."""
    def turn(mat):
        rows, cols = np.indices(mat.shape)
        return mat * np.exp(1j * (0.3 + 0.5 * rows + 0.9 * cols))
    return dataclasses.replace(cat, f_table={k: turn(m) for k, m in cat.f_table.items()})


def test_pair_tree_generators_match_scalar_reference(su24, so52):
    """Every (non-unit leaf, total) pair tree, on the stored tables and on a
    phased copy: the same outcome as the scalar loop; where a rep is built,
    the same nonzero positions and every entry within 1e-15."""
    outcomes = []
    for cat in (su24, so52, _phased(su24), _phased(so52)):
        for a in cat.labels:
            if a == cat.unit:
                continue
            for b in cat.labels:
                kind, built = _pair_tree_outcome(pair_tree_generators, cat, a, b)
                ref_kind, ref = _pair_tree_outcome(reference_pair_tree_generators, cat, a, b)
                assert kind == ref_kind, (cat.name, a, b)
                outcomes.append(kind)
                if kind == "missing":
                    assert built == ref
                if kind != "rep":
                    continue
                for (rows, cols, values), (ref_rows, ref_cols, ref_values) in zip(
                        built.nonzeros, ref.nonzeros):
                    assert np.array_equal(rows, ref_rows), (cat.name, a, b)
                    assert np.array_equal(cols, ref_cols), (cat.name, a, b)
                    assert abs(values - ref_values).max(initial=0.0) <= 1e-15, (cat.name, a, b)
    # 50 pairs per table set: su2_4 has 4 non-unit leaves x 5 totals, so5_2 5 x 6
    assert [outcomes.count(k) for k in ("rep", "empty", "missing")] == [24, 46, 30]


def test_pair_tree_generators_make_no_scalar_lookups(su24, so52, monkeypatch):
    """On complete data every F- and R-number is gathered from the
    category's tables: no ``Category.f`` or ``Category.r`` call."""
    calls = []
    for name in ("f", "r"):
        lookup = getattr(Category, name)
        monkeypatch.setattr(Category, name, lambda *args, lookup=lookup:
                            calls.append(args[1:]) or lookup(*args))
    for cat, a, b in ((su24, "1", "2"), (su24, "1", "0"), (so52, "eps", "y1")):
        rep = pair_tree_generators(cat, a, b)
        assert rep.dim and calls == []
    with pytest.raises(MissingDataError):
        pair_tree_generators(so52, "eps", "1")
    assert calls  # the spy sees the lookup that raises


def _internal_nodes(structure):
    """Internal nodes of a tree structure in preorder, root first."""
    if isinstance(structure, int):
        return []
    return [structure] + _internal_nodes(structure[0]) + _internal_nodes(structure[1])


def fork_route_sigma(cat, basis, i):
    """sigma_i built the slow way: change to the shape where leaves i-1, i
    share a fork, twist the fork charge by R, and change back."""
    shape = basis.shape
    atoms = list(range(i - 1)) + [(i - 1, i)] + list(range(i + 1, shape.n_leaves))
    structure = reduce(lambda acc, x: (acc, x), atoms[1:], atoms[0])
    fork = enumerate_basis(cat, TreeShape(structure, shape.leaves, shape.total))
    slot = _internal_nodes(structure).index((i - 1, i))  # 0 is the root
    a = shape.leaves[0]
    twist = np.array([cat.r(a, a, shape.total if slot == 0 else lab[slot - 1])
                      for lab in fork.states])
    move = tree_change(cat, basis, fork)
    return move.conj().T @ (twist[:, None] * move)


def _fork_route_cases(su24, so52):
    for leaf in ("1", "3"):
        for n in range(3, 9):
            for total in su24.labels:
                yield su24, comb_tree(su24, [leaf] * n, total)
    for total in ("2", "0"):
        yield su24, block_comb_tree(su24, "1", 2, total)
    for total in ("y1", "y2"):  # the totals the partial so5_2 tables cover
        yield so52, comb_tree(so52, ["eps"] * 4, total)


def test_general_generators_match_fork_route(su24, so52):
    checked = 0
    for cat, shape in _fork_route_cases(su24, so52):
        basis = enumerate_basis(cat, shape)
        if basis.dim == 0:
            continue
        rep = general_generators(cat, basis)
        for i in range(1, shape.n_leaves):
            assert abs(rep.sigma(i) - fork_route_sigma(cat, basis, i)).max() < 1e-12
        checked += 1
    assert checked == 34


def test_two_strand_rep(su24):
    basis = enumerate_basis(su24, comb_tree(su24, ["1", "1"], "2"))
    rep = general_generators(su24, basis)
    assert rep.dim == 1
    assert abs(rep.sigma(1)[0, 0] - su24.r("1", "1", "2")) < 1e-12


def test_relations_qutrit_qupit(qutrit_rep, qupit_rep):
    for rep in (qutrit_rep, qupit_rep):
        report = rep_check(rep)
        assert report.unitarity_max < 1e-9
        assert report.braid_max < 1e-9
        assert report.far_commutation_max < 1e-9


def test_relations_27_dim(su24):
    basis = enumerate_basis(su24, block_comb_tree(su24, "1", 2, "2"))
    rep = general_generators(su24, basis)
    assert rep.dim == 27
    report = rep_check(rep)
    assert report.unitarity_max < 1e-9
    assert report.braid_max < 1e-9
    assert report.far_commutation_max < 1e-9


def test_inverse_is_conjugate_transpose(qutrit_rep):
    for gen in qutrit_rep.generators:
        assert abs(gen @ gen.conj().T - np.eye(qutrit_rep.dim)).max() < 1e-12


def test_corrupted_rep_detected(qutrit_rep):
    bad = [g.copy() for g in qutrit_rep.generators]
    bad[1][0, 1] += 0.01
    report = rep_check(BraidRep(qutrit_rep.n_strands, qutrit_rep.dim,
                                tuple(_nonzeros(g) for g in bad)))
    assert max(report.unitarity_max, report.braid_max) > 1e-3


def test_missing_data_signalled(so52):
    for shape in (comb_tree(so52, ["eps"] * 6, "y1"), comb_tree(so52, ["eps"] * 4, "1")):
        basis = enumerate_basis(so52, shape)
        assert basis.dim > 0
        with pytest.raises(MissingDataError):
            general_generators(so52, basis)


def test_mixed_leaf_types_rejected(su24):
    basis = enumerate_basis(su24, comb_tree(su24, ["1", "2", "1"], "1"))
    with pytest.raises(ValueError):
        general_generators(su24, basis)


ZIGZAG12 = "((1 (1 (1 (1 (1 1))))) (((((1 1) 1) 1) 1) 1))->2"


def dense_rep_check(rep):
    """The dense relation check that ``rep_check`` replaced: every product
    is a full dim^3 matmul."""
    gens = rep.generators
    eye = np.eye(rep.dim)
    unit = max((abs(g.conj().T @ g - eye).max() for g in gens), default=0.0)
    braid = 0.0
    for i in range(len(gens) - 1):
        lhs = gens[i] @ gens[i + 1] @ gens[i]
        rhs = gens[i + 1] @ gens[i] @ gens[i + 1]
        braid = max(braid, abs(lhs - rhs).max())
    far = 0.0
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            far = max(far, abs(gens[i] @ gens[j] - gens[j] @ gens[i]).max())
    return unit, braid, far


def _residuals(report):
    return report.unitarity_max, report.braid_max, report.far_commutation_max


def reference_summed(dim, rows, cols, values):
    """Row-major triples with the values at repeated positions added up."""
    keys, inverse = np.unique(rows * dim + cols, return_inverse=True)
    sums = np.zeros(len(keys), dtype=complex)
    np.add.at(sums, inverse, values)
    return keys // dim, keys % dim, sums


def reference_product(dim, a, b):
    """Triples of a @ b: each nonzero a[r, k] meets the nonzeros of row k
    of ``b``, which must be row-major.  When that pairing would produce more
    than dim^2 terms, the product is formed densely instead."""
    a_rows, a_cols, a_vals = a
    b_rows, b_cols, b_vals = b
    starts = np.searchsorted(b_rows, np.arange(dim + 1))
    counts = np.diff(starts)[a_cols]
    if counts.sum() > dim * dim:
        return triples._dense_product(dim, a, b)
    left = np.repeat(np.arange(len(a_rows)), counts)
    right = np.repeat(starts[a_cols] + counts - np.cumsum(counts), counts) + np.arange(len(left))
    return reference_summed(dim, a_rows[left], b_cols[right], a_vals[left] * b_vals[right])


def reference_max_diff(dim, lhs, rhs):
    """max |lhs - rhs| over the whole matrix; off both supports it is 0."""
    rows, cols, values = (np.concatenate(pair) for pair in zip(lhs, (*rhs[:2], -rhs[2])))
    return np.abs(reference_summed(dim, rows, cols, values)[2]).max(initial=0.0)


def reference_rep_check(rep):
    """The per-relation check that ``rep_check`` replaced: every relation
    formed alone, each side summed by ``np.unique`` + ``np.add.at``, and the
    difference summed again over the concatenation lhs || -rhs.  Returns the
    three residuals."""
    dim = rep.dim
    gens = rep.nonzeros
    eye = (np.arange(dim), np.arange(dim), np.ones(dim))
    unit = [reference_max_diff(dim, reference_product(dim, (c, r, v.conj()), (r, c, v)), eye)
            for r, c, v in gens]
    braid = [reference_max_diff(dim, reference_product(dim, reference_product(dim, a, b), a),
                                reference_product(dim, reference_product(dim, b, a), b))
             for a, b in zip(gens, gens[1:])]
    far = [reference_max_diff(dim, reference_product(dim, a, b), reference_product(dim, b, a))
           for i, a in enumerate(gens) for b in gens[i + 2:]]
    return tuple(float(np.max(res, initial=0.0)) for res in (unit, braid, far))


def _same_residuals(got, want):
    """Equal floats, a NaN matching a NaN."""
    return all(g == w or (math.isnan(g) and math.isnan(w)) for g, w in zip(got, want))


def reference_rep_shapes(su24, so52):
    """(label, category, shape) of the fusion-tree reps of ``reference_reps``."""
    shapes = [(f"comb{n}-{leaf}-{total}", su24, comb_tree(su24, [leaf] * n, total))
              for leaf in ("1", "3") for n in range(2, 11) for total in su24.labels]
    shapes += [(f"block8-{total}", su24, block_comb_tree(su24, "1", 2, total))
               for total in ("2", "0")]
    shapes += [("block12", su24, block_comb_tree(su24, "1", 3, "2")),
               ("right-comb6", su24, TreeShape((0, (1, (2, (3, (4, 5))))), ("1",) * 6, "2")),
               ("zigzag12", su24, parse_shape(su24, ZIGZAG12))]
    shapes += [(f"so5_2-comb4-{total}", so52, comb_tree(so52, ["eps"] * 4, total))
               for total in ("y1", "y2")]
    return shapes


PAIR_MODELS = (("qutrit", "su2_4", "1", "2"), ("qubit", "su2_4", "1", "0"),
               ("qupit", "so5_2", "eps", "y1"))


def reference_bases(su24, so52):
    """(label, category, basis) of the reps of ``reference_reps``, in order."""
    cats = {"su2_4": su24, "so5_2": so52}
    bases = [(label, cats[name], enumerate_basis(cats[name], pair_tree(cats[name], leaf, total)))
             for label, name, leaf, total in PAIR_MODELS]
    for label, cat, shape in reference_rep_shapes(su24, so52):
        basis = enumerate_basis(cat, shape)
        if basis.dim:
            bases.append((label, cat, basis))
    return bases


@pytest.fixture(scope="module")
def reference_reps(su24, so52):
    """(label, rep) over the pair-tree models, su2_4 combs n = 2..10 with
    leaves 1 and 3 and every admissible total, the block-8 and block-12
    shapes, a right comb, a 12-leaf zigzag (a right comb joined to a left
    comb, whose sigma_6 no edge constrains), and the so5_2 4-comb."""
    cats = {"su2_4": su24, "so5_2": so52}
    reps = [(label, pair_tree_generators(cats[name], leaf, total))
            for label, name, leaf, total in PAIR_MODELS]
    for label, cat, basis in reference_bases(su24, so52)[len(PAIR_MODELS):]:
        reps.append((label, general_generators(cat, basis)))
    return reps


def test_rep_check_matches_dense_reference(reference_reps):
    assert len(reference_reps) == 54
    for label, rep in reference_reps:
        sparse = _residuals(rep_check(rep))
        dense = dense_rep_check(rep)
        assert max(sparse) < 1e-12, label
        assert max(abs(s - d) for s, d in zip(sparse, dense)) < 1e-13, label


@pytest.mark.parametrize("delta", [1e-6, 0.01])
def test_rep_check_matches_dense_on_corrupted_reps(reference_reps, delta):
    for label, rep in reference_reps:
        bad = [g.copy() for g in rep.generators]
        bad[len(bad) // 2][0, -1] += delta
        bad_rep = BraidRep(rep.n_strands, rep.dim, tuple(_nonzeros(g) for g in bad))
        sparse = _residuals(rep_check(bad_rep))
        dense = dense_rep_check(bad_rep)
        assert sparse[0] > delta / 10, label
        for s, d in zip(sparse, dense):
            if d > 1e-12:  # a residual the corruption reaches
                assert abs(s - d) <= 1e-9 * d, label
            else:
                assert abs(s - d) < 1e-13, label


def _variants(rep):
    """``rep`` itself, its middle generator corrupted at [0, -1] by 1e-6 and
    by 0.01, and with the middle generator's first nonzero set to NaN."""
    yield "clean", rep
    for delta in (1e-6, 0.01):
        bad = [g.copy() for g in rep.generators]
        bad[len(bad) // 2][0, -1] += delta
        yield f"delta={delta}", BraidRep(rep.n_strands, rep.dim, tuple(_nonzeros(g) for g in bad))
    gens = list(rep.nonzeros)
    rows, cols, values = gens[len(gens) // 2]
    values = values.copy()
    values[0] = np.nan
    gens[len(gens) // 2] = rows, cols, values
    yield "nan", BraidRep(rep.n_strands, rep.dim, tuple(gens))


def test_rep_check_bit_identical_to_per_relation_reference(reference_reps):
    """Aligned differences and batched relations give exactly the residuals
    of the per-relation check, on clean, corrupted and NaN reps."""
    nans = 0
    for label, rep in reference_reps:
        for variant, checked in _variants(rep):
            got = _residuals(rep_check(checked))
            want = reference_rep_check(checked)
            assert _same_residuals(got, want), (label, variant, got, want)
            nans += math.isnan(got[0])
    assert nans == len(reference_reps)


@pytest.mark.parametrize("n", [14, 16])
def test_rep_check_bit_identical_on_large_combs(su24, n):
    rep = general_generators(su24, enumerate_basis(su24, comb_tree(su24, ["1"] * n, "2")))
    assert _residuals(rep_check(rep)) == reference_rep_check(rep)


COMB_WINDOW_GRID = ([("su2_4", leaf, n) for leaf in ("1", "2", "3") for n in range(3, 17)]
                    + [("so5_2", "eps", n) for n in range(3, 9)]
                    + [("su2_4", "1", n) for n in range(17, 21)]
                    # so5_2 leaves whose combs lack data at some total
                    + [("so5_2", leaf, n) for leaf in ("z", "y1", "y2", "eps'")
                       for n in range(3, 15)]
                    + [("so5_2", "eps", n) for n in range(9, 15)])
# the totals checked past 18 strands, where the global check takes a second
LONG_COMB_TOTALS = {19: ("1",), 20: ("2",)}


@pytest.mark.parametrize("name, leaf, n", COMB_WINDOW_GRID,
                         ids=lambda v: v if isinstance(v, str) else str(v))
def test_comb_windows_equal_the_global_check(name, leaf, n):
    """On every comb of the grid, at every total with a nonempty space, the
    window check gives the global check's residuals float for float, and
    the error it raises where the generators need absent data.  Every
    twist block of these leaves has at most 3 rows, so from dim 27 on the
    windows must not defer: they raise that error themselves."""
    cat = builtin_category(name)
    for total in LONG_COMB_TOTALS.get(n, cat.labels):
        shape = comb_tree(cat, [leaf] * n, total)
        basis = enumerate_basis(cat, shape)
        if basis.dim == 0:
            continue
        try:
            want = _residuals(rep_check(general_generators(cat, basis)))
        except MissingDataError as exc:
            for check in (shape_check, braidrep._comb_windows)[:1 + (basis.dim >= 27)]:
                with pytest.raises(MissingDataError) as raised:
                    check(cat, shape)
                assert str(raised.value) == str(exc), total
            continue
        dim, report = shape_check(cat, shape)
        assert (dim, _residuals(report)) == (basis.dim, want), total
        windows = braidrep._comb_windows(cat, shape)
        if basis.dim >= 27:
            assert windows[0] == basis.dim and _residuals(windows[1]) == want, total
        else:
            assert windows is None or (windows[0], _residuals(windows[1])) == (basis.dim, want), \
                total


def test_comb_windows_raise_missing_data_without_rows(so52, monkeypatch):
    """20 `eps'` leaves at total 1 (dim (5^9 + 1)/2): the windows raise the
    global check's first absent R-symbol without joining a basis row."""
    shape = comb_tree(so52, ["eps'"] * 20, "1")
    monkeypatch.setattr(trees, "_joined", lambda *args: pytest.fail("a row was joined"))
    start = time.perf_counter()
    with pytest.raises(MissingDataError, match=r"^so5_2: no stored R-symbol for \(eps',eps';1\)$"):
        shape_check(so52, shape)
    assert time.perf_counter() - start < 0.5


def first_missing_row(cat, shape, missing):
    """Reference: (p_{i-2}, p_i) of general_generators' first row whose
    twist block is ``missing``, scanning sigma_1, sigma_2, ... on the basis."""
    basis, n = enumerate_basis(cat, shape), shape.n_leaves
    a = cat.labels.index(shape.leaves[0])
    charges = [np.zeros(basis.dim, dtype=int), np.full(basis.dim, a),
               *basis.labels[:, ::-1].T]  # p_{-1}, p_0, p_1, ..., p_{n-1}
    for i in range(1, n):
        x, d = charges[i - 1], charges[i + 1]
        for j in np.flatnonzero(missing[x, d])[:1]:
            return int(x[j]), int(d[j])
    return None


@pytest.mark.parametrize("name, leaf", [("su2_4", "1"), ("su2_4", "2"), ("so5_2", "eps"),
                                        ("so5_2", "y1")])
def test_first_missing_block_is_that_of_the_first_basis_row(name, leaf):
    """On combs of 3-9 strands at every total, for random masks of missing
    twist blocks, the search on charge sets finds the block of the first
    row general_generators meets."""
    cat = builtin_category(name)
    a, size = cat.labels.index(leaf), len(cat.labels)
    step = cat.tables.fusion[:, a]
    rng, found = np.random.default_rng(3), 0
    for n in range(3, 10):
        for total in cat.labels:
            shape = comb_tree(cat, [leaf] * n, total)
            dim, marks = trees._paths(cat, shape)
            sets = [1] + marks[n - 1::-1]
            for density in (0.05, 0.1, 0.2, 0.35, 0.5) * bool(dim):
                missing = rng.random((size, size)) < density
                want = first_missing_row(cat, shape, missing)
                if want is not None:
                    found += 1
                    assert braidrep._first_missing(step, missing, sets,
                                                   trees._unpacked(sets, size)) == want, \
                        (n, total, density)
    assert found >= 60


def loop_twists(cat, a):
    """Reference: :func:`braidrep._twists` formed block by block, one
    gather and matmul per (x, d)."""
    tables = cat.tables
    c_rows, c_cols = tables.rows[:, a, a], tables.cols[:, a, a]
    r_missing = c_cols & tables.r_missing[a, a]
    missing = tables.f_missing[:, a, a] | r_missing.any(-1)
    twists = np.zeros((len(cat.labels),) * 4, dtype=complex)
    for x, d in zip(*np.nonzero(c_rows.any(-1) & ~missing)):
        fmat = tables.f[x, a, a, d][np.ix_(c_rows[x, d], c_cols[x, d])]
        twist = tables.r[a, a, c_cols[x, d]]
        twists[x, d][np.ix_(c_rows[x, d], c_rows[x, d])] = fmat.conj() @ (twist[:, None] * fmat.T)
    return twists, missing, r_missing


@pytest.mark.parametrize("name", ["su2_4", "so5_2"])
def test_twist_blocks_equal_the_per_block_loop(name):
    """The stacked twist products are the per-block ones bit for bit, on
    every leaf label, and so are the masks of blocks and R-symbols that
    need absent data."""
    cat = builtin_category(name)
    for a in range(len(cat.labels)):
        got, want = braidrep._twists(cat, a), loop_twists(cat, a)
        assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64)), cat.labels[a]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


@pytest.mark.parametrize("name, leaf", [("su2_4", "1"), ("su2_4", "2"), ("su2_4", "3"),
                                        ("so5_2", "eps")])
def test_comb_dimension_is_the_path_count(name, leaf):
    """The comb dimension of the fusion-path pass is e_unit . step^n,
    counted here by exact object-array products, on 3-40 strands at every
    total; where the windows run they report it, and on an empty comb they
    raise the empty-space error of rep_check."""
    cat = builtin_category(name)
    a = cat.labels.index(leaf)
    step = cat.tables.fusion[:, a]
    counts = (np.arange(len(cat.labels)) == 0).astype(object)
    for n in range(1, 41):
        counts = counts @ step.astype(object)
        if n < 3:
            continue
        for total, want in zip(cat.labels, counts):
            shape = comb_tree(cat, [leaf] * n, total)
            assert trees._paths(cat, shape)[0] == want, (n, total)
            if want == 0:
                with pytest.raises(ValueError, match="^empty fusion space: nothing to check$"):
                    braidrep._comb_windows(cat, shape)
                continue
            try:
                windows = braidrep._comb_windows(cat, shape)
            except MissingDataError:  # as the global check; its message is compared above
                continue
            assert windows is None or windows[0] == want, (n, total)


def loop_reach_and_far(step, has_block, n, total):
    """Reference: the comb's reach sets as bool arrays, one matmul per
    strand, and the far-commutation recursion run once per strand."""
    size = len(step)
    forward, backward = [np.arange(size) == 0], [np.arange(size) == total]
    for _ in range(n):
        forward.append(forward[-1] @ step)
        backward.append(step @ backward[-1])
    backward.reverse()
    far = np.zeros((size,) * 4, dtype=bool)
    later = np.zeros((size,) * 3, dtype=bool)
    for i in range(n - 3, 0, -1):
        later = (step.astype(int) @ later.reshape(size, -1) > 0).reshape(later.shape)
        later |= np.eye(size, dtype=bool)[:, :, None] & (has_block & backward[i + 3])[None]
        far |= (forward[i - 1][:, None] & has_block)[:, :, None, None] & later[None]
    return forward, backward, far


@pytest.mark.parametrize("name, leaf", [("su2_4", "1"), ("su2_4", "2"), ("su2_4", "3"),
                                        ("so5_2", "eps")])
def test_comb_reach_sets_and_far_blocks_equal_the_per_strand_loop(name, leaf):
    """The charge sets the fusion-path pass marks on a comb's path charges
    p_0..p_{n-1} are the forward and backward reach sets of the per-strand
    loop, intersected, and the far-commutation recursion on them, run once
    per distinct state, gives the loop's far blocks, on 3-40 strands at
    every total."""
    cat = builtin_category(name)
    a = cat.labels.index(leaf)
    step, has_block = cat.tables.fusion[:, a], cat.tables.rows[:, a, a].any(-1)
    size = len(cat.labels)
    for n in range(3, 41):
        for total in range(size):
            marks = trees._paths(cat, comb_tree(cat, [leaf] * n, cat.labels[total]))[1]
            sets = [1] + marks[n - 1::-1]  # as braidrep._comb_windows reads them
            bits = trees._unpacked(sets, size)
            forward, backward, far = loop_reach_and_far(step, has_block, n, total)
            assert np.array_equal([bits[s] for s in sets[1:]],
                                  np.logical_and(forward, backward)[1:]), (n, total)
            assert np.array_equal(braidrep._far_blocks(step, has_block, sets, bits), far), \
                (n, total)


def test_comb_windows_defer_where_the_global_check_goes_dense(su24):
    """The 3-strand `2` comb at total 2 (dim 3, twist blocks of 3 rows) has
    products past dim^2 terms, which the global check forms by a dense
    matmul: the windows defer to it."""
    shape = comb_tree(su24, ["2"] * 3, "2")
    assert braidrep._comb_windows(su24, shape) is None
    assert shape_check(su24, shape) == (3, rep_check(general_generators(
        su24, enumerate_basis(su24, shape))))


def test_summation_kernel_keeps_generators(su24, so52, reference_reps, monkeypatch):
    """Generators built with the np.unique + np.add.at sums are the stored
    ones byte for byte: the sorted bincount kernel adds in the same order."""
    def unique_summed(keys, values):
        keys, inverse = np.unique(keys, return_inverse=True)
        sums = np.zeros(len(keys), dtype=complex)
        np.add.at(sums, inverse, values)
        return keys, sums
    built = dict(reference_reps)
    monkeypatch.setattr(triples, "_summed", unique_summed)
    for label, cat, shape in reference_rep_shapes(su24, so52):
        if label not in built:
            continue
        for got, want in zip(general_generators(cat, enumerate_basis(cat, shape)).nonzeros,
                             built[label].nonzeros):
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want)), label


def _keyed(dim, entries):
    """(keys, values) of ``{(row, col): value}``, row-major."""
    ordered = sorted(entries.items())
    keys = np.array([r * dim + c for (r, c), _ in ordered], dtype=np.int64)
    return keys, np.array([v for _, v in ordered], dtype=complex)


@pytest.mark.parametrize("lhs, rhs", [
    ({(0, 0): 1, (1, 2): 2j, (3, 3): -1}, {(0, 0): 1 + 1e-3, (2, 1): 5, (3, 3): -1}),
    ({(0, 1): 1, (2, 2): 3}, {(1, 0): 2, (3, 1): 0.5j}),  # disjoint supports
    ({}, {(1, 1): 4 - 3j}),
    ({(2, 0): 7}, {}),
    ({}, {}),
    ({(0, 0): np.nan, (1, 1): 1}, {(1, 1): 1}),
    ({(1, 1): 1}, {(0, 0): complex(0, np.nan), (1, 1): 1}),
    ({(0, 0): 1, (1, 1): 2}, {(1, 1): np.nan}),
    ({(0, 0): 1, (1, 2): 2j}, {(0, 0): 1 + 1e-3, (1, 2): 2j - 0.5}),  # the same keys
    ({(0, 0): np.nan, (3, 3): 1}, {(0, 0): 1, (3, 3): 1}),
    ({(0, 0): 1, (3, 3): 1}, {(0, 0): 1, (3, 3): complex(np.nan, 0)}),
    ({(0, 1): 1, (2, 2): 3}, {(0, 1): 1, (2, 3): 3}),  # as many keys, not the same
])
def test_max_diff_aligns_keys(lhs, rhs):
    """|l - r| on shared positions, |l| or |r| on one-sided ones, 0 on none;
    a NaN anywhere gives NaN: bit for bit the concatenate-and-sum residual."""
    dim = 4
    got = triples._max_diff(_keyed(dim, lhs), _keyed(dim, rhs))
    want = reference_max_diff(dim, *(tuple(np.divmod(k, dim)) + (v,)
                                     for k, v in (_keyed(dim, lhs), _keyed(dim, rhs))))
    assert _same_residuals([got], [want])
    dense = np.zeros((dim, dim), dtype=complex)
    for side, sign in ((lhs, 1), (rhs, -1)):
        for (r, c), v in side.items():
            dense[r, c] += sign * v
    assert _same_residuals([got], [np.abs(dense).max()])


def _searchsorted_calls(monkeypatch):
    """The list that every ``np.searchsorted`` call appends to from now on."""
    calls, search = [], np.searchsorted
    monkeypatch.setattr(np, "searchsorted",
                        lambda *args, **kw: calls.append(1) or search(*args, **kw))
    return calls


@pytest.mark.parametrize("rhs, searched", [
    ({(0, 1): 1, (2, 2): 3 + 1j}, False),
    ({(0, 1): 1, (2, 3): 3 + 1j}, True),
    ({(0, 1): 1}, True),
])
def test_max_diff_searches_only_unequal_keys(rhs, searched, monkeypatch):
    calls = _searchsorted_calls(monkeypatch)
    triples._max_diff(_keyed(4, {(0, 1): 1, (2, 2): 3}), _keyed(4, rhs))
    assert bool(calls) == searched


def _sparse(rng, dim, empty_rows, density=0.4):
    """Row-major triples of a random complex dim x dim matrix whose rows
    ``empty_rows`` hold no nonzero."""
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat[rng.random((dim, dim)) > density] = 0
    mat[list(empty_rows)] = 0
    return _nonzeros(mat)


def _reference_keyed(dim, a, b):
    rows, cols, values = reference_product(dim, a, b)
    return rows * dim + cols, values


def _same_keyed(got, want):
    return all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_keyed_product_matches_searchsorted_reference(su24, monkeypatch):
    """Row starts counted by ``np.bincount`` give the searchsorted reference
    byte for byte: empty leading, interior and trailing rows on either
    side, an empty factor, and the unit relation's transposed left factor,
    which is not row-major.  No call searches."""
    rng, dim = np.random.default_rng(27), 7
    empty = _nonzeros(np.zeros((dim, dim)))
    cases = [(_sparse(rng, dim, (0, 3, 6)), _sparse(rng, dim, rows))
             for rows in ((0,), (3,), (6,), (0, 1, 4, 6), ())]
    cases += [(_sparse(rng, dim, (2,)), empty), (empty, _sparse(rng, dim, ())),
              (_sparse(rng, dim, (), density=1.0), _sparse(rng, dim, (), density=1.0))]
    rep = general_generators(su24, enumerate_basis(su24, comb_tree(su24, ["1"] * 6, "2")))
    unit = [((c, r, v.conj()), (r, c, v)) for r, c, v in rep.nonzeros]
    calls = _searchsorted_calls(monkeypatch)
    got = [triples._keyed_product(dim, a, b) for a, b in cases]
    got += [triples._keyed_product(rep.dim, a, b) for a, b in unit]
    assert not calls
    want = [_reference_keyed(dim, a, b) for a, b in cases]
    want += [_reference_keyed(rep.dim, a, b) for a, b in unit]
    assert all(map(_same_keyed, got, want))
    assert len(got[5][0]) == 0 and len(got[6][0]) == 0


def _unique_summed(keys, values):
    """The np.unique + np.add.at sums of ``values`` at each distinct key."""
    keys, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(keys), dtype=complex)
    np.add.at(sums, inverse, values)
    return keys, sums


@pytest.mark.parametrize("keys, values", [
    ([1, 4, 5, 9], [1 + 2j, -3j, 0.5, 2]),  # already increasing
    ([9, 1, 5, 4], [1 + 2j, -3j, 0.5, 2]),  # distinct, out of order
    ([5, 1, 5, 4, 1, 5], [1e16, 2j, 1.0, -1e-3, -2j, -1e16]),  # repeated, order matters
    ([2, 7], [complex(-0.0, -0.0), complex(1, -0.0)]),  # a lone -0.0 term
    ([7, 2], [complex(-0.0, 1), complex(3, -0.0)]),
    ([3, 3, 0], [complex(-0.0, -0.0), complex(-0.0, -0.0), 1]),
    ([0, 3, 6], [np.nan, complex(0, np.nan), 1]),  # NaN terms
    ([6, 3, 3, 0], [1, complex(0, np.nan), 2, complex(-np.nan, 0)]),
    ([4], [complex(-0.0, 2)]),  # one term
    ([], []),  # no terms
])
@pytest.mark.parametrize("dtype", [complex, float])
def test_summed_matches_unique_reference(keys, values, dtype):
    """Keys in order, keys sorted and distinct, and repeated keys each give
    the np.unique + np.add.at sums byte for byte, -0.0 and NaN payloads
    included; real values come out complex."""
    keys = np.array(keys, dtype=np.intp)
    values = np.array(values, dtype=complex)
    if dtype is float:
        values = values.real.copy()
    got, want = triples._summed(keys, values), _unique_summed(keys, values)
    assert all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("text", [
    "(((((1 1)(1 1))((1 1)(1 1)))((1 1)(1 1)))((1 1)(1 1)))->2",  # block-16, dim 2187
    ZIGZAG12,
])
def test_rep_check_matches_reference_on_noncomb_shapes(su24, text):
    rep = general_generators(su24, enumerate_basis(su24, parse_shape(su24, text)))
    assert _residuals(rep_check(rep)) == reference_rep_check(rep)


def test_rep_check_sorts_and_sums_only_what_needs_it(su24, monkeypatch):
    """Of comb-14's 193 summations, 103 come out in row-major order and
    are neither sorted nor summed, 55 are distinct once sorted, and only 35
    repeat a position and are summed by np.bincount.  Each generator's row
    starts are counted once."""
    rep = general_generators(su24, enumerate_basis(su24, comb_tree(su24, ["1"] * 14, "2")))
    calls, inside = [], []
    summed, argsort, bincount = triples._summed, np.argsort, np.bincount

    def traced_summed(keys, values):
        calls.append({"argsort": 0, "bincount": 0})
        inside.append(True)
        try:
            return summed(keys, values)
        finally:
            inside.pop()

    def counted(name, func):
        def call(*args, **kw):
            (calls[-1] if inside else outside)[name] += 1
            return func(*args, **kw)
        return call

    outside = {"argsort": 0, "bincount": 0}
    monkeypatch.setattr(triples, "_summed", traced_summed)
    monkeypatch.setattr(np, "argsort", counted("argsort", argsort))
    monkeypatch.setattr(np, "bincount", counted("bincount", bincount))
    assert rep_check(rep).ok(1e-12)
    paths = [(c["argsort"], c["bincount"]) for c in calls]
    assert len(paths) == 193
    assert (paths.count((0, 0)), paths.count((1, 0)), paths.count((1, 2))) == (103, 55, 35)
    assert outside == {"argsort": 0, "bincount": 13}


def test_rep_check_product_choice(su24, monkeypatch):
    """Local generators are multiplied term by term; a product that would
    expand to more than dim^2 terms falls back to a dense matmul.  On the
    zigzag (dim 243) exactly the 19 products of the per-relation reference
    check go dense, on the same operands; none does on the block comb or
    on comb-10."""
    dense_calls = []
    dense_product = triples._dense_product
    monkeypatch.setattr(triples, "_dense_product",
                        lambda dim, a, b: dense_calls.append(
                            b"".join(x.tobytes() for x in (*a, *b))) or dense_product(dim, a, b))
    for text, dense_expected in [("((((1 1)(1 1))((1 1)(1 1)))((1 1)(1 1)))->2", False),
                                 (ZIGZAG12, True)]:
        rep = general_generators(su24, enumerate_basis(su24, parse_shape(su24, text)))
        dense_calls.clear()
        assert rep_check(rep).ok(1e-12)
        assert bool(dense_calls) == dense_expected, text
    batched = sorted(dense_calls)
    dense_calls.clear()
    reference_rep_check(rep)
    assert len(batched) == 19 and batched == sorted(dense_calls)
    rep = general_generators(su24, enumerate_basis(su24, comb_tree(su24, ["1"] * 10, "2")))
    dense_calls.clear()
    assert rep_check(rep).ok(1e-12) and not dense_calls


def test_rep_check_propagates_nan(qutrit_rep):
    for k in range(3):
        bad = [g.copy() for g in qutrit_rep.generators]
        bad[k][1, 1] = np.nan
        report = rep_check(BraidRep(qutrit_rep.n_strands, qutrit_rep.dim,
                                    tuple(_nonzeros(g) for g in bad)))
        assert math.isnan(report.unitarity_max) and math.isnan(report.braid_max)
        assert not report.ok()
    assert not RepReport(0.0, math.nan, 0.0).ok()


def test_rep_check_rejects_empty_space(su24):
    rep = general_generators(su24, enumerate_basis(su24, comb_tree(su24, ["1", "1"], "1")))
    assert rep.dim == 0
    with pytest.raises(ValueError, match="empty fusion space"):
        rep_check(rep)


def dense_general_generators(cat, basis):
    """The dense construction that ``general_generators`` replaced: each
    comb sigma_i filled into a dim x dim array, other shapes conjugated by
    dense ``move^dagger @ sigma @ move`` and masked by ``dense_local``.
    Returns the tuple of dense generators."""
    shape = basis.shape
    n = shape.n_leaves
    if n < 2:
        raise ValueError("need at least 2 strands")
    if len(set(shape.leaves)) != 1:
        raise ValueError("general_generators requires identical leaf labels")
    a = shape.leaves[0]
    comb_shape = comb_tree(cat, shape.leaves, shape.total)
    comb = basis if shape == comb_shape else enumerate_basis(cat, comb_shape)
    blocks = {}

    def block(x, d):
        """Row labels of F[x,a,a;d] and sigma on them, indexed [n', n]."""
        if (x, d) not in blocks:
            fmat = cat.f(x, a, a, d)
            twist = np.array([cat.r(a, a, w) for w in cat.f_cols(x, a, a, d)])
            blocks[x, d] = cat.f_rows(x, a, a, d), fmat.conj() @ (twist[:, None] * fmat.T)
        return blocks[x, d]

    # a comb labeling is c_{n-2}..c_1; extended, c_k sits at position n-1-k
    charges = [(shape.total,) + lab + (a, cat.unit) for lab in comb.states]
    index = {c: k for k, c in enumerate(charges)}
    signs = np.asarray(comb.signs, dtype=float)
    generators = []
    for i in range(1, n):
        gen = np.zeros((comb.dim, comb.dim), dtype=complex)
        p = n - i  # position of c_{i-1}
        for col, c in enumerate(charges):
            rows, mat = block(c[p + 1], c[p - 1])
            for r, label in enumerate(rows):
                gen[index[c[:p] + (label,) + c[p + 1:]], col] = mat[r, rows.index(c[p])]
        generators.append(signs[:, None] * gen * signs[None, :])
    if comb is not basis:
        move = tree_change(cat, basis, comb)
        generators = [dense_local(move.conj().T @ g @ move, basis, i)
                      for i, g in enumerate(generators, start=1)]
    return tuple(generators)


def _leaves(structure):
    """Leaf slots of a tree structure, left to right."""
    if isinstance(structure, int):
        return (structure,)
    return _leaves(structure[0]) + _leaves(structure[1])


def dense_local(gen, basis, i):
    """``gen`` with the entries sigma_i cannot have set to 0: those between
    states that differ on an edge holding both strands i-1, i or neither.
    Edge k, internal node k + 1 in preorder, holds the leaves under it."""
    edges = [_leaves(node) for node in _internal_nodes(basis.shape.structure)[1:]]
    fixed = [k for k, slots in enumerate(edges) if (i - 1 in slots) == (i in slots)]
    groups = {}
    group = np.array([groups.setdefault(tuple(lab[k] for k in fixed), len(groups))
                      for lab in basis.states])
    return np.where(group[:, None] == group[None, :], gen, 0)


def longdouble_su2(k):
    """F and R of SU(2)_k from the q-Racah formulas of ``_su2_k``, evaluated
    in np.longdouble.  Labels are ints (twice the spin).  Returns
    ``f(a, b, c, d) -> (rows, cols, block)`` and ``r(a, b, c)``."""
    pi = np.arccos(np.longdouble(-1))
    qint = [np.sin(n * pi / (k + 2)) / np.sin(pi / (k + 2)) for n in range(k + 2)]
    fact = [np.prod(qint[1:n + 1], dtype=np.longdouble) for n in range(k + 2)]

    def fuse(a, b):
        return range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2)

    def delta(a, b, c):
        return np.sqrt(fact[(a + b - c) // 2] * fact[(a - b + c) // 2]
                       * fact[(b + c - a) // 2] / fact[(a + b + c) // 2 + 1])

    def six_j(a, b, e, c, d, f):
        tri = [(a + b + e) // 2, (e + c + d) // 2, (b + c + f) // 2, (a + f + d) // 2]
        quad = [(a + b + c + d) // 2, (a + c + e + f) // 2, (b + d + e + f) // 2]
        total = np.longdouble(0)
        for z in range(max(tri), min(*quad, k) + 1):
            den = (np.prod([fact[z - t] for t in tri], dtype=np.longdouble)
                   * np.prod([fact[s - z] for s in quad], dtype=np.longdouble))
            total += (-1) ** z * fact[z + 1] / den
        return delta(a, b, e) * delta(e, c, d) * delta(b, c, f) * delta(a, f, d) * total

    @cache
    def f(a, b, c, d):
        rows = [e for e in fuse(a, b) if d in fuse(e, c)]
        cols = [m for m in fuse(b, c) if d in fuse(a, m)]
        if 0 in (a, b, c):
            return rows, cols, np.ones((1, 1), dtype=np.clongdouble)
        sign = (-1) ** ((a + b + c + d) // 2)
        return rows, cols, np.array([[sign * np.sqrt(qint[e + 1] * qint[m + 1])
                                      * six_j(a, b, e, c, d, m) for m in cols]
                                     for e in rows], dtype=np.clongdouble)

    @cache
    def r(a, b, c):
        angle = pi * np.longdouble(c * (c + 2) - a * (a + 2) - b * (b + 2)) / (4 * (k + 2))
        return (-1) ** ((a + b - c) // 2) * (np.cos(angle) + np.clongdouble(1j) * np.sin(angle))

    return f, r


def theory_generators(basis, k=4):
    """sigma_1..sigma_{n-1} of an su2_k basis by the dense comb route in
    np.clongdouble: the (signed) basis rotated to the left comb by row
    gathers, the comb twist applied, and move^dagger (sigma move)."""
    f, r = longdouble_su2(k)
    shape, dim = basis.shape, basis.dim
    n, a, total = shape.n_leaves, int(shape.leaves[0]), int(shape.total)
    labelings = [tuple(map(int, lab)) for lab in basis.states]
    move = np.diag(np.asarray(basis.signs, dtype=np.clongdouble))
    node, k_node = shape.structure, 0
    while not isinstance(node, int):  # the rotations of trees._to_comb
        x_part, right = node
        if isinstance(right, int):
            node, k_node = x_part, k_node + 1
            continue
        y_part, z_part = right
        im = k_node + len(_internal_nodes(x_part))
        iz = im + 1 + len(_internal_nodes(y_part))
        index, moved = {}, []
        for col, lab in enumerate(labelings):
            w = total if k_node == 0 else lab[k_node - 1]
            x, y, z = (a if isinstance(part, int) else lab[i]
                       for part, i in ((x_part, k_node), (y_part, im + 1), (z_part, iz)))
            u_labels, m_labels, block = f(x, y, z, w)
            coeffs = block[:, m_labels.index(lab[im])].conj()
            for u, coeff in zip(u_labels, coeffs):
                new = lab[:k_node] + (u,) + lab[k_node:im] + lab[im + 1:]
                moved.append((index.setdefault(new, len(index)), col, coeff))
        rows, cols, coeffs = (np.array(v) for v in zip(*moved))
        gathered = np.zeros_like(move)
        np.add.at(gathered, rows, coeffs[:, None] * move[cols])
        move, labelings = gathered, list(index)
        node = ((x_part, y_part), z_part)
    support = [np.flatnonzero(move[:, c]) for c in range(dim)]
    charges = [(total,) + lab + (a, 0) for lab in labelings]
    index = {c: row for row, c in enumerate(charges)}
    generators = []
    for i in range(1, n):
        p = n - i  # position of c_{i-1}
        twisted = np.zeros_like(move)
        for col, c in enumerate(charges):
            labels, pair, block = f(c[p + 1], a, a, c[p - 1])
            phases = np.array([r(a, a, w) for w in pair])
            mixed = block.conj() @ (phases * block[labels.index(c[p])])
            for label, value in zip(labels, mixed):
                twisted[index[c[:p] + (label,) + c[p + 1:]]] += value * move[col]
        generators.append(np.stack([move[nz, c].conj() @ twisted[nz]
                                    for c, nz in enumerate(support)]))
    return generators


def test_longdouble_theory_matches_su2_4(su24):
    """The long-double F and R agree with the stored float64 tables."""
    f, r = longdouble_su2(4)
    for (a, b, c, d), block in su24.f_table.items():
        assert abs(f(*map(int, (a, b, c, d)))[2] - block).max() < 1e-15
    for (a, b, c), value in su24.r_table.items():
        assert abs(r(*map(int, (a, b, c))) - value) < 1e-15


def test_general_generators_match_dense_reference(su24, so52):
    """Combs: the stored triples are the reference's exact nonzeros, bit for
    bit.  Other shapes (built by other F-moves than the reference): every
    stored entry lies inside the edge rule, every reference entry above
    1e-12 is stored, and on su2_4 each generator is no farther from the
    long-double theory than the reference is."""
    comb14 = enumerate_basis(su24, comb_tree(su24, ["1"] * 14, "2"))
    bases = reference_bases(su24, so52)
    bases.append(("comb14", su24, comb14))
    combs = 0
    for label, cat, basis in bases:
        built = general_generators(cat, basis).nonzeros
        dense_reference = dense_general_generators(cat, basis)
        reference = [_nonzeros(g) for g in dense_reference]
        is_comb = basis.shape == comb_tree(cat, basis.shape.leaves, basis.shape.total)
        combs += is_comb
        assert len(built) == len(reference), label
        if not is_comb:
            theory = theory_generators(basis) if cat is su24 else None
            for i, ((rows, cols, values), dense) in enumerate(zip(built, dense_reference),
                                                              start=1):
                allowed = dense_local(np.ones(dense.shape), basis, i) != 0
                assert allowed[rows, cols].all(), (label, i)
                stored = np.zeros(dense.shape, dtype=bool)
                stored[rows, cols] = True
                assert stored[abs(dense) > 1e-12].all(), (label, i)
                if theory is not None:
                    sigma = np.zeros(dense.shape, dtype=complex)
                    sigma[rows, cols] = values
                    error = abs(sigma - theory[i - 1]).max()
                    assert error <= abs(dense - theory[i - 1]).max(), (label, i)
            continue
        for i, ((rows, cols, values), (ref_rows, ref_cols, ref_values)) in enumerate(
                zip(built, reference), start=1):
            assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols), (label, i)
            assert values.tobytes() == ref_values.tobytes(), (label, i)
    assert combs == len(bases) - 8  # 3 pair-tree models, block-8 x2, block-12, right comb, zigzag


def test_noncomb_generators_take_no_dense_product(su24, monkeypatch):
    """The F-moves at the meeting node keep every product sparse on block
    combs and the right comb.  (The 12-leaf zigzag is left out: its sigma_6
    fixes no edge, so it is dense whatever the route.)"""
    def refuse(*args):
        raise AssertionError("dense product")
    monkeypatch.setattr(triples, "_dense_product", refuse)
    shapes = [block_comb_tree(su24, "1", blocks, "2") for blocks in (2, 3, 4)]
    shapes.append(TreeShape((0, (1, (2, (3, (4, 5))))), ("1",) * 6, "2"))
    for shape in shapes:
        rep = general_generators(su24, enumerate_basis(su24, shape))
        assert len(rep.nonzeros) == shape.n_leaves - 1


def test_unrotated_rows_are_sorted_once(su24, monkeypatch):
    """Every sigma_i whose meeting node needs no F-move searches the basis
    rows through one sort per call: a left comb sorts once, and the right
    comb once plus once per rotated sigma_i (all but sigma_5)."""
    sorts = []
    finder = braidrep._finder
    monkeypatch.setattr(braidrep, "_finder", lambda labels: sorts.append(labels) or finder(labels))
    for shape, count in [(comb_tree(su24, ["1"] * 8, "2"), 1),
                         (TreeShape((0, (1, (2, (3, (4, 5))))), ("1",) * 6, "2"), 5)]:
        sorts.clear()
        general_generators(su24, enumerate_basis(su24, shape))
        assert len(sorts) == count


def test_sigma_index_checked(qutrit_rep):
    assert qutrit_rep.n_strands == 4
    for i in (0, -1, 4):
        with pytest.raises(IndexError):
            qutrit_rep.sigma(i)
    for i in (1, 2, 3):
        assert np.array_equal(qutrit_rep.sigma(i), qutrit_rep.generators[i - 1])


@pytest.fixture(scope="module")
def comb6(su24):
    return general_generators(su24, enumerate_basis(su24, comb_tree(su24, ["1"] * 6, "2")))


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.int32, np.uint64])
def test_rep_stores_intp_indices(su24, dtype):
    """Rows and cols of any integer dtype are stored as intp, so keys
    rows * dim + cols never wrap: comb-11 (dim 122) rebuilt with narrow or
    unsigned indices checks and evaluates exactly as built."""
    rep = general_generators(su24, enumerate_basis(su24, comb_tree(su24, ["1"] * 11, "1")))
    assert rep.dim == 122
    narrow = BraidRep(rep.n_strands, rep.dim,
                      tuple((rows.astype(dtype), cols.astype(dtype), values)
                            for rows, cols, values in rep.nonzeros))
    assert all(x.dtype == np.intp for rows, cols, _ in narrow.nonzeros for x in (rows, cols))
    assert _residuals(rep_check(narrow)) == _residuals(rep_check(rep))
    word = BraidWord(11, (1, 2, -3, 4, 5, 6, -7, 8, 9, 10, 1, -10))
    assert np.array_equal(eval_word(narrow, word), eval_word(rep, word))


@pytest.mark.parametrize("n_strands, dim", [(True, 3), (4.0, 3), ("4", 3), (1, 3), (0, 3),
                                             (4, False), (4, 3.0), (4, None), (4, -1)])
def test_rep_rejects_bad_sizes(qutrit_rep, n_strands, dim):
    with pytest.raises(ValueError):
        BraidRep(n_strands, dim, qutrit_rep.nonzeros)


def test_rep_holds_its_sizes_and_generators_only(qutrit_rep):
    """Sizes of any integer type are stored as ints; a rep has no field
    beyond them and its generators, and compares and hashes by identity."""
    rep = BraidRep(np.int64(4), np.int32(3), qutrit_rep.nonzeros)
    assert type(rep.n_strands) is int and type(rep.dim) is int
    assert (rep.n_strands, rep.dim) == (qutrit_rep.n_strands, qutrit_rep.dim)
    assert [field.name for field in dataclasses.fields(BraidRep)] == ["n_strands", "dim",
                                                                       "nonzeros"]
    assert rep == rep and rep != qutrit_rep
    assert len({rep, qutrit_rep, rep}) == 2 and hash(rep) == hash(rep)


def test_general_generators_refuse_a_basis_of_another_category(su24, so52):
    """so5_2 data on the su2_4 6-comb basis would pass for a dim-9 rep."""
    basis = enumerate_basis(su24, comb_tree(su24, ["1"] * 6, "2"))
    with pytest.raises(ValueError, match="another category"):
        general_generators(so52, basis)


def test_rep_rejects_reversed_triples(comb6):
    """Each triple reversed holds the same entries (the dense generators are
    equal) but breaks the row-major order that the products rely on."""
    flipped = tuple(tuple(x[::-1] for x in triple) for triple in comb6.nonzeros)
    assert all(np.array_equal(triples._dense(comb6.dim, t), g)
               for t, g in zip(flipped, comb6.generators))
    with pytest.raises(ValueError, match="row-major"):
        BraidRep(comb6.n_strands, comb6.dim, flipped)


def test_rep_rejects_missing_generators(comb6):
    assert len(comb6.nonzeros) == 5
    with pytest.raises(ValueError, match="5 triples"):
        BraidRep(comb6.n_strands, comb6.dim, comb6.nonzeros[:2])


def test_rep_rejects_out_of_range_index(comb6):
    rows, cols, values = comb6.nonzeros[0]
    cols = cols.copy()
    cols[-1] = comb6.dim
    with pytest.raises(ValueError, match="outside"):
        BraidRep(comb6.n_strands, comb6.dim, ((rows, cols, values), *comb6.nonzeros[1:]))


@pytest.mark.parametrize("fault", ["list", "pair", "2-d", "lengths", "float rows",
                                   "bool cols", "text values", "repeat", "negative"])
def test_rep_rejects_malformed_triples(comb6, fault):
    rows, cols, values = comb6.nonzeros[0]
    first = {"list": [rows, cols, values],
             "pair": (rows, cols),
             "2-d": (rows[:, None], cols[:, None], values[:, None]),
             "lengths": (rows, cols, values[:-1]),
             "float rows": (rows.astype(float), cols, values),
             "bool cols": (rows, cols.astype(bool), values),
             "text values": (rows, cols, values.astype(str)),
             "repeat": (np.repeat(rows, 2), np.repeat(cols, 2), np.repeat(values, 2)),
             "negative": (rows - 1, cols, values)}[fault]
    with pytest.raises(ValueError):
        BraidRep(comb6.n_strands, comb6.dim, (first, *comb6.nonzeros[1:]))


def test_dense_views_do_not_alias_the_stored_generators(su24):
    """Writing into a matrix from ``generators`` or ``sigma`` leaves the rep
    as built: its nonzeros, its dense views and its relation check."""
    builds = [lambda: pair_tree_generators(su24, "1", "2"),
              lambda: general_generators(su24, enumerate_basis(
                  su24, comb_tree(su24, ["1"] * 5, "1")))]
    for build in builds:
        rep, fresh = build(), build()
        rep.generators[0][0, 1] = 0.5
        rep.sigma(2)[1, 1] = np.nan
        for stored, want in zip(rep.nonzeros, fresh.nonzeros):
            assert all(np.array_equal(x, y) for x, y in zip(stored, want))
        assert all(np.array_equal(g, h) for g, h in zip(rep.generators, fresh.generators))
        assert rep_check(rep).ok()


def test_comb16_generators_hold_no_dense_matrix(su24):
    """Building the 16-strand comb generators (dim 2187) never holds as much
    memory as one dense 2187 x 2187 complex matrix (76.5 MB)."""
    basis = enumerate_basis(su24, comb_tree(su24, ["1"] * 16, "2"))
    assert basis.dim == 2187
    tracemalloc.start()
    try:
        rep = general_generators(su24, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.nonzeros) == 15
    assert peak < 2187 ** 2 * 16
