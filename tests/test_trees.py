"""Fusion-tree bases, F-move basis changes, block embeddings."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from metaplectic import synthesis
from metaplectic.categories import (InadmissibleError, UnknownLabelError, builtin_category,
                                    parse_category, serialize_category)
from metaplectic.trees import (block_comb_tree, block_embedding, comb_tree, enumerate_basis,
                               format_shape, pair_tree, parse_shape, tree_change, TreeShape)


@pytest.fixture(scope="module")
def su24():
    return builtin_category("su2_4")


@pytest.fixture(scope="module")
def so52():
    return builtin_category("so5_2")


def path_count(cat, leaf, n, total):
    """Independent dimension oracle: walk counts on the fusion graph."""
    counts = {leaf: 1}
    for _ in range(n - 1):
        new = {}
        for label, num in counts.items():
            for out in cat.fuse(label, leaf):
                new[out] = new.get(out, 0) + num
        counts = new
    return counts.get(cat.resolve(total), 0)


def test_qutrit_basis_golden_order(su24):
    basis = enumerate_basis(su24, pair_tree(su24, "eps", "y"))
    assert basis.dim == 3
    assert basis.states == (("2", "2"), ("0", "2"), ("2", "0"))
    assert basis.signs == (-1, 1, 1)


def test_qupit_basis_golden_order(so52):
    basis = enumerate_basis(so52, pair_tree(so52, "eps", "y1"))
    assert basis.dim == 5
    assert basis.states == (("y2", "y2"), ("1", "y1"), ("y2", "y1"),
                            ("y1", "y2"), ("y1", "1"))
    assert basis.signs == (1,) * 5


def test_qubit_basis(su24):
    basis = enumerate_basis(su24, pair_tree(su24, "1", "0"))
    assert basis.states == (("0", "0"), ("2", "2"))


def test_basis_labels_are_a_read_only_array(su24):
    """Row i holds state i as label positions: the total, then the internal
    charges in preorder; ``states`` and ``index`` read the same rows."""
    basis = enumerate_basis(su24, pair_tree(su24, "1", "2"))
    assert basis.labels.tolist() == [[2, 2, 2], [2, 0, 2], [2, 2, 0]]
    with pytest.raises(ValueError):
        basis.labels[0, 0] = 0
    assert [basis.index(state) for state in basis.states] == [0, 1, 2]


def test_enumerate_basis_resolves_labels(su24):
    """A hand-built shape may name labels by alias; an unknown one raises."""
    for leaves, total in ((("1",) * 3, "eps"), (("eps",) * 3, "1")):
        basis = enumerate_basis(su24, TreeShape(((0, 1), 2), leaves, total))
        assert basis.dim == 2
        assert basis.shape == comb_tree(su24, ["1"] * 3, "1")
    with pytest.raises(UnknownLabelError):
        enumerate_basis(su24, TreeShape(((0, 1), 2), ("1",) * 3, "x"))


def test_empty_basis_allowed(su24):
    basis = enumerate_basis(su24, pair_tree(su24, "eps", "eps"))
    assert basis.dim == 0


def test_dimensions_against_path_count(su24, so52):
    assert path_count(su24, "1", 4, "2") == 3
    assert path_count(so52, "eps", 4, "y1") == 5
    assert path_count(su24, "1", 8, "2") == 27
    assert path_count(su24, "1", 8, "0") == 14
    basis27 = enumerate_basis(su24, block_comb_tree(su24, "1", 2, "2"))
    assert basis27.dim == 27
    comb27 = enumerate_basis(su24, comb_tree(su24, ["1"] * 8, "2"))
    assert comb27.dim == 27  # dimension is shape-independent


def test_dimension_shape_independence_so52(so52):
    for total in ("1", "z", "y1", "y2"):
        expected = path_count(so52, "eps", 4, total)
        assert enumerate_basis(so52, pair_tree(so52, "eps", total)).dim == expected
        assert enumerate_basis(so52, comb_tree(so52, ["eps"] * 4, total)).dim == expected


def test_tree_change_identity(su24):
    basis = enumerate_basis(su24, pair_tree(su24, "eps", "y"))
    mat = tree_change(su24, basis, basis)
    assert abs(mat - np.eye(3)).max() < 1e-12


def test_tree_change_round_trip(su24):
    pair = enumerate_basis(su24, pair_tree(su24, "eps", "y"))
    comb = enumerate_basis(su24, comb_tree(su24, ["1"] * 4, "2"))
    there = tree_change(su24, pair, comb)
    back = tree_change(su24, comb, pair)
    assert abs(back @ there - np.eye(3)).max() < 1e-9
    assert abs(there.conj().T @ there - np.eye(3)).max() < 1e-9  # unitary


def test_tree_change_single_f_move(su24):
    # three eps leaves, total eps: ((aa)a) -> (a(aa)) is one F-move
    left = enumerate_basis(su24, TreeShape(((0, 1), 2), ("1",) * 3, "1"))
    right = enumerate_basis(su24, TreeShape((0, (1, 2)), ("1",) * 3, "1"))
    mat = tree_change(su24, left, right)
    f_mat = su24.f("1", "1", "1", "1")
    # states of both bases are ordered (0, 2); the move transposes F
    assert abs(mat - f_mat.T).max() < 1e-12


def test_tree_change_path_independence(su24):
    pair = enumerate_basis(su24, pair_tree(su24, "eps", "y"))
    fork = enumerate_basis(su24, parse_shape(su24, "((1 (1 1)) 1)->2"))
    comb = enumerate_basis(su24, comb_tree(su24, ["1"] * 4, "2"))
    direct = tree_change(su24, pair, comb)
    via_fork = tree_change(su24, fork, comb) @ tree_change(su24, pair, fork)
    assert abs(direct - via_fork).max() < 1e-8


def test_tree_change_refuses_a_basis_of_another_category(su24, so52):
    """Both bases must be enumerated on ``cat`` itself: so5_2 data read at
    the su2_4 qutrit labels would give a 3 x 3 matrix, and a parsed copy of
    su2_4 is another category object."""
    pair = enumerate_basis(su24, pair_tree(su24, "eps", "y"))
    comb = enumerate_basis(su24, comb_tree(su24, ["1"] * 4, "2"))
    copy = parse_category(serialize_category(su24), name="su2_4")
    for cat, basis_from, basis_to in [(so52, pair, pair), (copy, pair, comb),
                                      (su24, pair, enumerate_basis(copy, comb.shape)),
                                      (su24, enumerate_basis(copy, pair.shape), comb)]:
        with pytest.raises(ValueError, match="another category"):
            tree_change(cat, basis_from, basis_to)
    assert tree_change(copy, enumerate_basis(copy, pair.shape),
                       enumerate_basis(copy, comb.shape)).shape == (3, 3)


def test_tree_change_mismatch_errors(su24):
    one = enumerate_basis(su24, pair_tree(su24, "eps", "y"))
    other = enumerate_basis(su24, pair_tree(su24, "eps", "0"))
    with pytest.raises(InadmissibleError):
        tree_change(su24, one, other)


# ---------------------------------------------------------------------------
# Reference: the earlier basis-change engine, kept verbatim.  It carries every
# state as a dict of node charges with a dense amplitude vector over the
# source basis and rewrites the dicts one rotation at a time.


def _replace(structure, path, new):
    if not path:
        return new
    left, right = structure
    if path[0] == 0:
        return (_replace(left, path[1:], new), right)
    return (left, _replace(right, path[1:], new))


def _internal_paths(structure, path=()):
    """Paths of internal nodes in preorder; () is the root."""
    if isinstance(structure, int):
        return []
    left, right = structure
    return [path] + _internal_paths(left, path + (0,)) + _internal_paths(right, path + (1,))


def _subtree(structure, path):
    for step in path:
        structure = structure[step]
    return structure


def _assignment(shape, labeling):
    """labeling tuple -> dict of path -> charge for every node."""
    charges = {}
    internal = _internal_paths(shape.structure)
    charges[()] = shape.total
    for path, label in zip(internal[1:], labeling):
        charges[path] = label
    for slot, path in _leaf_paths(shape.structure):
        charges[path] = shape.leaves[slot]
    return charges


def _leaf_paths(structure, path=()):
    if isinstance(structure, int):
        return [(structure, path)]
    left, right = structure
    return _leaf_paths(left, path + (0,)) + _leaf_paths(right, path + (1,))


def _labeling_of(structure, charges):
    internal = _internal_paths(structure)
    return tuple(charges[p] for p in internal[1:])


def _rotate_left_assignment(cat, charges, path):
    """Apply (X (Y Z)) -> ((X Y) Z) at ``path``; yields (new charges, coeff)."""
    w = charges[path]
    x = charges[path + (0,)]
    m = charges[path + (1,)]
    y = charges[path + (1, 0)]
    z = charges[path + (1, 1)]
    fmat = cat.f(x, y, z, w)
    rows = cat.f_rows(x, y, z, w)
    cols = cat.f_cols(x, y, z, w)
    mi = cols.index(m)
    x_moves = [(p, q) for p, q in charges.items()
               if p[:len(path) + 1] == path + (0,)]
    y_moves = [(p, q) for p, q in charges.items()
               if p[:len(path) + 2] == path + (1, 0)]
    z_moves = [(p, q) for p, q in charges.items()
               if p[:len(path) + 2] == path + (1, 1)]
    base = {p: q for p, q in charges.items()
            if not (p[:len(path) + 1] in (path + (0,), path + (1,)) and len(p) > len(path))}
    k = len(path)
    for p, q in x_moves:
        base[path + (0, 0) + p[k + 1:]] = q
    for p, q in y_moves:
        base[path + (0, 1) + p[k + 2:]] = q
    for p, q in z_moves:
        base[path + (1,) + p[k + 2:]] = q
    for ui, u in enumerate(rows):
        coeff = np.conj(fmat[ui, mi])  # inverse F-move entry
        if coeff == 0:
            continue
        new = dict(base)
        new[path + (0,)] = u
        yield new, coeff


def dense_to_comb(cat, basis):
    """Rewrite a basis into the left comb; returns (comb labelings in lex
    order, matrix taking basis coordinates to comb coordinates)."""
    structure = basis.shape.structure
    states = [(_assignment(basis.shape, lab), col)
              for col, lab in enumerate(basis.states)]
    matrix_cols = basis.dim
    amplitudes = {}
    for charges, col in states:
        key = frozenset(charges.items())
        vec = amplitudes.setdefault(key, np.zeros(matrix_cols, dtype=complex))
        vec[col] += 1.0

    def first_rotation(structure, path=()):
        if isinstance(structure, int):
            return None
        left, right = structure
        if not isinstance(right, int):
            return path
        return first_rotation(left, path + (0,))

    while True:
        path = first_rotation(structure)
        if path is None:
            break
        new_amplitudes = {}
        for key, vec in amplitudes.items():
            charges = dict(key)
            for new, coeff in _rotate_left_assignment(cat, charges, path):
                nk = frozenset(new.items())
                acc = new_amplitudes.setdefault(nk, np.zeros(matrix_cols, dtype=complex))
                acc += coeff * vec
        amplitudes = new_amplitudes
        node = _subtree(structure, path)
        x, (y, z) = node
        structure = _replace(structure, path, ((x, y), z))

    labelings = {}
    for key, vec in amplitudes.items():
        labelings[_labeling_of(structure, dict(key))] = vec
    order = sorted(labelings, key=lambda t: tuple(cat.labels.index(x) for x in t))
    mat = np.stack([labelings[lab] for lab in order]) if order else np.zeros((0, matrix_cols))
    return order, mat


def dense_tree_change(cat, basis_from, basis_to):
    """Unitary basis change between two shapes over the same leaves and
    total charge, composed from F-moves through the left comb.

    Signs of both computational bases are folded in, so coordinates map
    to coordinates.  Raises ``MissingDataError`` if a required F-entry is
    absent and ``InadmissibleError`` on mismatched leaves or total.
    """
    if basis_from.shape.leaves != basis_to.shape.leaves:
        raise InadmissibleError("tree_change: leaf labels differ")
    if basis_from.shape.total != basis_to.shape.total:
        raise InadmissibleError("tree_change: total charges differ")
    order_f, mat_f = dense_to_comb(cat, basis_from)
    order_t, mat_t = dense_to_comb(cat, basis_to)
    if order_f != order_t:
        raise AssertionError("comb bases disagree; inconsistent inputs")
    raw = mat_t.conj().T @ mat_f
    s_from = np.asarray(basis_from.signs, dtype=float)
    s_to = np.asarray(basis_to.signs, dtype=float)
    return s_to[:, None] * raw * s_from[None, :]


ZIGZAG12 = "((1 (1 (1 (1 (1 1))))) (((((1 1) 1) 1) 1) 1))->2"
BLOCK8 = "(((1 1)(1 1))((1 1)(1 1)))"


def complex_gauge(cat, seed):
    """``cat`` under a random vertex gauge u(a,b;c) (1 on unit vertices):
    F[a,b,c;d]_{ef} -> F u(a,b;e) u(e,c;d) / (u(b,c;f) u(a,f;d)).  The
    F-matrices turn complex, so a dropped conjugate changes a basis change."""
    rng = np.random.default_rng(seed)
    u = {(a, b, c): np.exp(2j * np.pi * rng.random())
         for (a, b), outs in sorted(cat.fusion.items()) for c in sorted(outs)
         if cat.unit not in (a, b)}
    v = lambda a, b, c: u.get((a, b, c), 1.0)
    table = {}
    for (a, b, c, d), mat in cat.f_table.items():
        rows, cols = cat.f_rows(a, b, c, d), cat.f_cols(a, b, c, d)
        table[a, b, c, d] = np.array([[mat[i, j] * v(a, b, e) * v(e, c, d)
                                       / (v(b, c, f) * v(a, f, d)) for j, f in enumerate(cols)]
                                      for i, e in enumerate(rows)])
    return dataclasses.replace(cat, f_table=table)


def reference_shapes(su24, so52):
    """(category, shape) pairs the sparse engine is held to the reference on."""
    shapes = [(su24, TreeShape((0, (1, 2)), ("1",) * 3, "1"))]
    shapes += [(su24, parse_shape(su24, text)) for text in (
        "((1 1)(1 1))->2", "((1 (1 1)) 1)->2", "(((1 1) 1) 1)->2",
        BLOCK8 + "->2", BLOCK8 + "->0", "((((1 1)(1 1))((1 1)(1 1)))((1 1)(1 1)))->2",
        "(1 (1 (1 (1 (1 1)))))->2", ZIGZAG12, "((3 1)(1 (3 1)))->1")]
    for n in range(3, 9):
        for leaves in (["1"] * n, [("1", "3")[k % 2] for k in range(n)]):
            shapes += [(su24, comb_tree(su24, leaves, total)) for total in su24.labels
                       if enumerate_basis(su24, comb_tree(su24, leaves, total)).dim]
    shapes += [(so52, pair_tree(so52, "eps", total)) for total in ("y1", "y2")]
    gauged = complex_gauge(su24, seed=3)
    assert any(abs(mat.imag).max() > 0.1 for mat in gauged.f_table.values())
    shapes += [(gauged, parse_shape(gauged, text)) for text in (
        "((1 1)(1 1))->2", BLOCK8 + "->2", "(1 (1 (1 (1 (1 1)))))->2", "((3 1)(1 (3 1)))->1")]
    return shapes


def test_tree_change_matches_dense_reference(su24, so52):
    for cat, shape in reference_shapes(su24, so52):
        basis = enumerate_basis(cat, shape)
        comb = enumerate_basis(cat, comb_tree(cat, shape.leaves, shape.total))
        assert basis.dim > 0, format_shape(shape)
        for src, dst in ((basis, comb), (comb, basis)):
            fast, slow = tree_change(cat, src, dst), dense_tree_change(cat, src, dst)
            assert fast.shape == slow.shape == (basis.dim, basis.dim)
            assert abs(fast - slow).max() < 1e-13, format_shape(shape)
    for cat, leaf, total in ((su24, "1", "2"), (su24, "1", "0"), (so52, "eps", "y1"),
                             (so52, "eps", "y2")):
        pair = enumerate_basis(cat, pair_tree(cat, leaf, total))
        fork_text = f"(({leaf} ({leaf} {leaf})) {leaf})->{total}"
        fork = enumerate_basis(cat, parse_shape(cat, fork_text))
        for src, dst in ((pair, fork), (fork, pair)):
            assert abs(tree_change(cat, src, dst) - dense_tree_change(cat, src, dst)).max() < 1e-13


def test_tree_change_empty_space(su24):
    basis = enumerate_basis(su24, parse_shape(su24, "(1 (1 1))->0"))
    comb = enumerate_basis(su24, comb_tree(su24, ["1"] * 3, "0"))
    assert basis.dim == comb.dim == 0
    for src, dst in ((basis, comb), (comb, basis)):
        assert tree_change(su24, src, dst).shape == (0, 0)


def test_block_embedding_two_qutrits(su24):
    mat, full, block = block_embedding(su24, "eps", "y", 2, "y")
    assert mat.shape == (27, 9)
    assert abs(mat.conj().T @ mat - np.eye(9)).max() < 1e-12
    # one nonzero entry of value +-1 per column
    for col in mat.T:
        nonzero = np.abs(col) > 1e-12
        assert nonzero.sum() == 1
        assert abs(np.abs(col[nonzero][0]) - 1.0) < 1e-12


def test_block_embedding_charge_zero_blocks(su24):
    mat, full, block = block_embedding(su24, "1", "0", 2, "0")
    assert mat.shape[1] == 4
    assert full.dim == 14
    mat4, _, block4 = block_embedding(su24, "1", "4", 2, "0")
    assert mat4.shape[1] == 1
    assert block4.states == (("2", "2"),)


def test_block_embedding_single_block(su24):
    mat, full, block = block_embedding(su24, "eps", "y", 1, "y")
    assert abs(mat - np.eye(3)).max() < 1e-12


def test_block_embedding_errors(su24):
    with pytest.raises(InadmissibleError):
        block_embedding(su24, "eps", "y", 2, "3")  # y x y cannot give eps'
    with pytest.raises(ValueError):
        block_embedding(su24, "eps", "y", 3, "y")


def test_shape_text_round_trip(so52):
    shape = parse_shape(so52, "((eps eps)(eps eps))->y1")
    assert shape.structure == ((0, 1), (2, 3))
    assert shape.total == "y1"
    assert format_shape(shape) == "((eps eps) (eps eps))->y1"
    again = parse_shape(so52, format_shape(shape))
    assert again == shape


def test_shape_text_errors(su24):
    with pytest.raises(ValueError):
        parse_shape(su24, "((eps eps)(eps eps))")  # no total
    with pytest.raises(ValueError):
        parse_shape(su24, "((eps eps)(eps)->y")  # malformed


COMB10 = "(((((((((1 1) 1) 1) 1) 1) 1) 1) 1) 1)"


def test_enumerate_basis_peak_memory(su24):
    """The root joins only the requested total: on comb-20 (total 2, dim
    19683) the traced peak stays within 3.5 times the labels returned
    (forming the rows of every total and filtering them took 5.2)."""
    shape = comb_tree(su24, ["1"] * 20, "2")
    tracemalloc.start()
    try:
        basis = enumerate_basis(su24, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.dim == 19683
    assert peak <= 3.5 * basis.labels.nbytes


@pytest.mark.parametrize("n, total, dim", [(20, "0", 9842), (20, "4", 9841), (21, "1", 29525)])
def test_enumerate_basis_forms_no_rows_off_the_total(su24, n, total, dim):
    """Each node joins only the charges that can still reach the requested
    total: away from total 2 the traced peak also stays within 3.5 times
    the labels returned (joining every charge below the root took 5.3 at
    comb-20 total 0)."""
    shape = comb_tree(su24, ["1"] * n, total)
    tracemalloc.start()
    try:
        basis = enumerate_basis(su24, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.dim == dim
    assert peak <= 3.5 * basis.labels.nbytes


def reference_labels(cat, shape):
    """Sorted label rows of ``shape``: every node joins every charge its
    children fuse to, and rows of another total are dropped at the end."""
    def rows(structure):
        # (root charge, internal charges in preorder) of each labeling of a subtree
        if isinstance(structure, int):
            return [(cat.labels.index(shape.leaves[structure]),)]
        left, right = map(rows, structure)
        keep = [not isinstance(part, int) for part in structure]  # a leaf has no internal node
        return [(int(charge), *l_row[:len(l_row) * keep[0]], *r_row[:len(r_row) * keep[1]])
                for l_row in left for r_row in right
                for charge in np.flatnonzero(cat.tables.fusion[l_row[0], r_row[0]])]

    total = cat.labels.index(shape.total)
    labels = [row for row in rows(shape.structure) if row[0] == total]
    return np.unique(np.array(labels, dtype=np.intp).reshape(-1, shape.n_leaves - 1), axis=0)


def test_enumerate_basis_matches_join_then_filter_reference(su24, so52):
    """The labels of every total on combs, block-8, a right comb and an
    8-leaf zigzag are the rows of a join over all charges, filtered by total."""
    shapes = [comb_tree(cat, [leaf] * n, total) for cat, leaf in ((su24, "1"), (su24, "3"),
                                                                   (so52, "eps"))
              for n in range(2, 8) for total in cat.labels]
    shapes += [block_comb_tree(su24, "1", 2, total) for total in su24.labels]
    shapes += [parse_shape(su24, text + "->" + total) for total in su24.labels
               for text in ("(1 (1 (1 (1 (1 1)))))", "((1 (1 (1 1))) (((1 1) 1) 1))")]
    dims = []
    for shape in shapes:
        cat = so52 if shape.leaves[0] == "eps" else su24
        basis = enumerate_basis(cat, shape)
        assert np.array_equal(np.unique(basis.labels, axis=0), reference_labels(cat, shape)), \
            format_shape(shape)
        dims.append(basis.dim)
    assert 0 in dims and max(dims) == 63


@pytest.mark.parametrize("text, what, need", [
    # dim 81, 9 generators: one intp row, intp column and complex value per row each
    (COMB10 + "->2", "braid generators", 81 * 9 * 32),
    # dim 40 and 9 generators; 13 and 7 on the block comb
    (COMB10 + "->4", "braid generators", 40 * 9 * 32),
    ("(((1 1)(1 1))((1 1)(1 1)))->4", "braid generators", 13 * 7 * 32),
])
def test_enumerate_basis_budget(su24, text, what, need, monkeypatch):
    """The least storage of generators on the space must fit
    ``_CLOSURE_BYTES``; past it the space is refused before any row is
    formed."""
    shape = parse_shape(su24, text)
    expected = enumerate_basis(su24, shape)
    monkeypatch.setattr(synthesis, "_CLOSURE_BYTES", need)
    assert np.array_equal(enumerate_basis(su24, shape).labels, expected.labels)
    monkeypatch.setattr(synthesis, "_CLOSURE_BYTES", need - 1)
    monkeypatch.setattr(np, "nonzero", lambda *args: pytest.fail("a row was formed"))
    with pytest.raises(ValueError, match=rf"dim-{expected.dim} space on {shape.n_leaves} "
                                         rf"leaves needs at least {need} bytes .* for its {what}"):
        enumerate_basis(su24, shape)


def recursive_subtrees(structure):
    """Reference: (leaf slots, internal nodes in preorder) by recursion."""
    if isinstance(structure, int):
        return (structure,), []
    (left_slots, left_nodes), (right_slots, right_nodes) = map(recursive_subtrees, structure)
    return left_slots + right_slots, [structure] + left_nodes + right_nodes


@pytest.mark.parametrize("text", ["(1 1)", "((1 1) 1)", "(1 (1 1))", "((1 1)(1 1))",
                                  "(((1 1)(1 1))((1 1)(1 1)))",
                                  "((1 (1 (1 1))) (((1 1) 1) 1))", "((((1 1) 1) 1) 1)"])
def test_tree_walks_match_recursive_reference(su24, text):
    from metaplectic.trees import _internal_nodes, _is_comb, _leaf_slots, _subtrees
    structure = parse_shape(su24, text + "->0").structure
    slots, nodes = recursive_subtrees(structure)
    assert _leaf_slots(structure) == slots and _internal_nodes(structure) == nodes
    subtrees = _subtrees(structure)
    for node, children in subtrees:
        assert tuple(subtrees[child][0] for child in children) == \
            (() if isinstance(node, int) else node)
    assert _is_comb(structure) == (structure == comb_tree(su24, ["1"] * len(slots), "0").structure)


def random_structure(rng, first, n):
    """A random full binary tree over the leaf slots first..first+n-1."""
    if n == 1:
        return first
    k = int(rng.integers(1, n))
    return random_structure(rng, first, k), random_structure(rng, first + k, n - k)


def test_split_slots_match_the_leaf_slot_map(su24):
    """One bottom-up pass gives each internal node the slot where its two
    children meet, as the last leaf slot of its left child, plus one, does
    on combs, block combs and random shapes."""
    from metaplectic.trees import _internal_nodes, _leaf_slots, _split_slots
    rng = np.random.default_rng(5)
    shapes = ([comb_tree(su24, ["1"] * n, "0").structure for n in (2, 3, 7, 40)]
              + [block_comb_tree(su24, "1", k, "0").structure for k in (1, 2, 5)]
              + [random_structure(rng, 0, int(rng.integers(2, 40))) for _ in range(100)])
    for structure in shapes:
        nodes = _internal_nodes(structure)
        assert {slot: k for k, slot in enumerate(_split_slots(structure))} == \
            {_leaf_slots(node[0])[-1] + 1: k for k, node in enumerate(nodes)}


@pytest.mark.parametrize("name, leaf", [("su2_4", "1"), ("su2_4", "2"), ("su2_4", "3"),
                                        ("so5_2", "eps")])
def test_fusion_path_pass_counts_and_marks_the_basis_rows(name, leaf):
    """On random shapes, at every total, empty spaces included, the one
    fusion-path pass gives the basis dimension, each internal node marks
    the charges in its column of the basis rows, and each leaf its label
    when the space has rows."""
    from metaplectic.trees import _paths, _subtrees
    cat = builtin_category(name)
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        structure = random_structure(rng, 0, n)
        subtrees = _subtrees(structure)
        internal = [at for at, (_, children) in enumerate(subtrees) if children]
        for total in cat.labels:
            shape = TreeShape(structure, (leaf,) * n, total)
            basis = enumerate_basis(cat, shape)
            dim, marks = _paths(cat, shape)
            assert dim == basis.dim, (structure, total)
            for column, at in enumerate(internal):  # column k holds internal node k
                assert marks[at] == sum(1 << q for q in set(basis.labels[:, column].tolist()))
            leaf_mark = 1 << cat.labels.index(leaf) if dim else 0
            assert all(marks[at] == leaf_mark for at, (_, children) in enumerate(subtrees)
                       if not children)


@pytest.mark.parametrize("name", ["su2_4", "so5_2"])
def test_no_node_joins_more_rows_than_the_basis_has(name, monkeypatch):
    """What lets one budget line cover the row join: on random shapes and
    leaves, at every total, empty spaces included, each row a node joins
    extends to its own basis row, so no node forms more than dim rows."""
    cat = builtin_category(name)
    formed, column_stack = [], np.column_stack

    def counted(parts):
        rows = column_stack(parts)
        formed.append(len(rows))
        return rows

    monkeypatch.setattr(np, "column_stack", counted)
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        structure = random_structure(rng, 0, n)
        # one leaf label, as the braid reps need, or mixed ones
        picks = rng.integers(0, len(cat.labels), n if rng.random() < 0.5 else 1)
        leaves = tuple(cat.labels[q] for q in np.resize(picks, n))
        for total in cat.labels:
            formed.clear()
            basis = enumerate_basis(cat, TreeShape(structure, leaves, total))
            assert len(formed) == n - 1 and max(formed) <= basis.dim, (structure, leaves, total)


def test_long_combs_need_no_recursion(su24):
    """Past the recursion limit a comb is built, counted and joined in loops:
    1500 unit leaves have one state, and 10 000 spin-1/2 leaves meet the
    budget with their sizes in e-notation (no float holds them)."""
    basis = enumerate_basis(su24, comb_tree(su24, ["0"] * 1500, "0"))
    assert basis.dim == 1 and np.array_equal(basis.labels, np.zeros((1, 1499), dtype=int))
    with pytest.raises(ValueError, match=r"^the dim-6\.732e\+2384 space on 10000 leaves needs at "
                                         r"least 2\.154e\+2390 bytes \(2\.01e\+2381 GiB\) for its "
                                         r"braid generators, over the 1 GiB budget$"):
        enumerate_basis(su24, comb_tree(su24, ["1"] * 10000, "0"))


def recursive_parse_shape(cat, text):
    """Reference: the recursive-descent parser (one Python frame per level)."""
    if "->" not in text:
        raise ValueError("shape text needs a '->' total charge")
    tree_text, total = text.rsplit("->", 1)
    tokens = tree_text.replace("(", " ( ").replace(")", " ) ").split()
    pos, leaves = 0, []

    def parse_node():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of shape text")
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            left, right = parse_node(), parse_node()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError("expected ')' in shape text")
            pos += 1
            return (left, right)
        if tok == ")":
            raise ValueError("unexpected ')' in shape text")
        pos += 1
        leaves.append(cat.resolve(tok))
        return len(leaves) - 1

    structure = parse_node()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in shape text: {tokens[pos:]}")
    return TreeShape(structure, tuple(leaves), cat.resolve(total.strip()))


def outcome(parse, cat, text):
    try:
        shape = parse(cat, text)
    except (ValueError, UnknownLabelError) as error:
        return type(error), str(error)
    return shape, format_shape(shape)


def test_parse_shape_matches_recursive_reference(su24):
    """Every shape and every error message, on random trees and on texts
    one token off (a dropped ')', an extra '(', a trailing leaf, no total)
    and random token strings."""
    rng = np.random.default_rng(3)

    def tree(n):
        if n == 1:
            return str(rng.integers(5))
        k = int(rng.integers(1, n))
        return f"({tree(k)}{' ' * int(rng.integers(2))} {tree(n - k)})"

    texts = ["", "->0", "(1 1)", "(1 1)->x", "(1 x)->0", ")(->0", "(1)->0", "(1 1 1)->0"]
    for _ in range(300):
        text = f"{tree(int(rng.integers(1, 12)))}->{rng.integers(5)}"
        texts += [text, text.replace(")", "", 1), text.replace("(", "((", 1), text + " 1",
                  text.rsplit("->", 1)[0]]
    texts += ["".join(rng.choice(["(", ")", "1", "2", " "], size=n)) + "->1"
              for n in range(1, 9) for _ in range(50)]
    for text in texts:
        assert outcome(parse_shape, su24, text) == outcome(recursive_parse_shape, su24, text), text


def test_parse_and_format_deep_shapes(su24):
    left, right = "1", "1"
    for _ in range(1499):
        left, right = f"({left} 1)", f"(1 {right})"
    for text in (left, right):
        shape = parse_shape(su24, text + "->0")
        assert shape.n_leaves == 1500 and format_shape(shape) == text + "->0"
    from metaplectic.trees import _is_comb  # == on these nested tuples would recurse
    assert _is_comb(parse_shape(su24, left + "->0").structure)
    assert not _is_comb(parse_shape(su24, right + "->0").structure)
