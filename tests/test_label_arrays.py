"""Label-array bases against the tuple paths they replaced.

The reference functions below are the engine's earlier code, kept as it
was: ``enumerate_basis`` as a recursion over label-name tuples, the
rotation ``(X (Y Z)) -> ((X Y) Z)`` and the comb route of ``tree_change``
as per-state loops with dict indexes, and the twist of
``general_generators`` as a per-state loop over cached F-blocks.  The
array engine must return the same bases (states, order, signs), the same
generator and basis-change triples byte for byte, and the same
``MissingDataError`` texts.
"""

from dataclasses import dataclass

import numpy as np

from metaplectic.braidrep import general_generators
from metaplectic.categories import InadmissibleError, MissingDataError, builtin_category
from metaplectic.trees import (_GOLDEN, TreeShape, _change, _internal_nodes, _leaf_slots,
                               comb_tree, enumerate_basis, format_shape, pair_tree)
from metaplectic.triples import _product

from test_braidrep import reference_rep_shapes
from test_trees import complex_gauge, reference_shapes


@dataclass(frozen=True)
class TupleBasis:
    shape: TreeShape
    states: tuple
    signs: tuple

    @property
    def dim(self):
        return len(self.states)


def tuple_enumerate_basis(cat, shape):
    """The tuple recursion that ``enumerate_basis`` replaced."""
    def rec(structure, charge):
        # labelings of the subtree, each including the subtree root charge first
        if isinstance(structure, int):
            return [()] if shape.leaves[structure] == charge else []
        left, right = structure
        out = []
        for cl in _charges(structure[0]):
            for cr in _charges(structure[1]):
                if charge not in cat.fuse(cl, cr):
                    continue
                for tl in rec(left, cl):
                    for tr in rec(right, cr):
                        out.append(_tag(left, cl, tl) + _tag(right, cr, tr))
        return out

    def _charges(structure):
        if isinstance(structure, int):
            return (shape.leaves[structure],)
        return cat.labels

    def _tag(structure, charge, labeling):
        return labeling if isinstance(structure, int) else (charge,) + labeling

    states = rec(shape.structure, shape.total)
    states.sort(key=lambda t: tuple(cat.labels.index(x) for x in t))
    key = (cat.name, shape.structure, shape.leaves, shape.total)
    if key in _GOLDEN:
        golden_states, signs = _GOLDEN[key]
        if sorted(golden_states) != sorted(tuple(s) for s in states):
            raise AssertionError(f"golden basis mismatch for {key}")
        return TupleBasis(shape, golden_states, signs)
    return TupleBasis(shape, tuple(states), (1,) * len(states))


def tuple_to_comb(cat, basis):
    shape, dim = basis.shape, basis.dim
    labelings = list(basis.states)
    move = (np.arange(dim), np.arange(dim), np.ones(dim, dtype=complex))
    blocks = {}
    node, k = shape.structure, 0
    while not isinstance(node, int):
        if isinstance(node[1], int):
            node, k = node[0], k + 1
        else:
            node, labelings, rotation = tuple_rotate(cat, shape, node, k, labelings, blocks)
            move = _product(dim, rotation, move)
    return labelings, move


def tuple_rotate(cat, shape, node, k, labelings, blocks):
    """The dict-indexed rotation that ``trees._rotate`` replaced."""
    x_part, (y_part, z_part) = node
    im = k + len(_leaf_slots(x_part)) - 1
    iz = im + len(_leaf_slots(y_part))
    index, rows, cols, values = {}, [], [], []
    for col, lab in enumerate(labelings):
        w = shape.total if k == 0 else lab[k - 1]
        x, y, z = (shape.leaves[part] if isinstance(part, int) else lab[i]
                   for part, i in ((x_part, k), (y_part, im + 1), (z_part, iz)))
        if (x, y, z, w) not in blocks:
            blocks[x, y, z, w] = (cat.f_rows(x, y, z, w), cat.f_cols(x, y, z, w),
                                  np.conj(cat.f(x, y, z, w)))
        u_labels, m_labels, coeffs = blocks[x, y, z, w]
        mi = m_labels.index(lab[im])
        for u, coeff in zip(u_labels, coeffs[:, mi]):
            if coeff == 0:
                continue
            rows.append(index.setdefault(lab[:k] + (u,) + lab[k:im] + lab[im + 1:], len(index)))
            cols.append(col)
            values.append(coeff)
    rotation = (np.array(rows, dtype=int), np.array(cols, dtype=int),
                np.array(values, dtype=complex))
    return ((x_part, y_part), z_part), list(index), rotation


def tuple_change(cat, basis_from, basis_to):
    """The dict-indexed ``trees._change``."""
    if basis_from.shape.leaves != basis_to.shape.leaves:
        raise InadmissibleError("tree_change: leaf labels differ")
    if basis_from.shape.total != basis_to.shape.total:
        raise InadmissibleError("tree_change: total charges differ")
    labs_f, move_from = tuple_to_comb(cat, basis_from)
    labs_t, (rows_t, cols_t, values_t) = tuple_to_comb(cat, basis_to)
    if sorted(labs_f) != sorted(labs_t):
        raise AssertionError("comb bases disagree; inconsistent inputs")
    dim = basis_from.dim
    index = {lab: r for r, lab in enumerate(labs_f)}
    rows_t = np.array([index[lab] for lab in labs_t], dtype=int)[rows_t]
    rows, cols, values = _product(dim, (cols_t, rows_t, values_t.conj()), move_from)
    s_from = np.asarray(basis_from.signs, dtype=float)
    s_to = np.asarray(basis_to.signs, dtype=float)
    return rows, cols, s_to[rows] * values * s_from[cols]


def tuple_general_generators(cat, basis):
    """The per-state twist loop that ``general_generators`` replaced."""
    shape = basis.shape
    n = shape.n_leaves
    if n < 2:
        raise ValueError("need at least 2 strands")
    if len(set(shape.leaves)) != 1:
        raise ValueError("general_generators requires identical leaf labels")
    a = shape.leaves[0]
    blocks, f_blocks = {}, {}

    def block(x, d):
        """Row labels of F[x,a,a;d] and sigma on them, indexed [n', n]."""
        if (x, d) not in blocks:
            fmat = cat.f(x, a, a, d)
            twist = np.array([cat.r(a, a, w) for w in cat.f_cols(x, a, a, d)])
            blocks[x, d] = cat.f_rows(x, a, a, d), fmat.conj() @ (twist[:, None] * fmat.T)
        return blocks[x, d]

    # extended to (total,) + lab + (a, unit), a labeling reads d, c and x at fixed positions
    states = [(shape.total,) + lab + (a, cat.unit) for lab in basis.states]
    index = {c: r for r, c in enumerate(states)}
    dim = basis.dim
    signs = np.asarray(basis.signs, dtype=float)
    identity = (np.arange(dim), np.arange(dim), np.ones(dim, dtype=complex))
    generators = []
    nodes = _internal_nodes(shape.structure)
    meeting = {_leaf_slots(node[0])[-1] + 1: k for k, node in enumerate(nodes)}
    for i in range(1, n):
        k = meeting[i]  # preorder index of the node
        node, labelings, move = nodes[k], basis.states, identity
        while not isinstance(node[1], int):
            node, labelings, rotation = tuple_rotate(cat, shape, node, k, labelings, f_blocks)
            move = _product(dim, rotation, move)
            node, k = node[0], k + 1
        left = node[0]
        while not isinstance(left, int) and not isinstance(left[1], int):
            left, labelings, rotation = tuple_rotate(cat, shape, left, k + 1, labelings,
                                                     f_blocks)
            move = _product(dim, rotation, move)
        # extended positions of c (the charge sigma_i changes) and x; d is at k
        pc, px = ((-2, -1) if isinstance(left, int)
                  else (k + 1, -2 if isinstance(left[0], int) else k + 2))
        rotated = move is not identity
        charges = ([(shape.total,) + lab + (a, cat.unit) for lab in labelings]
                   if rotated else states)
        lookup = {c: r for r, c in enumerate(charges)} if rotated else index
        rows, cols, values = [], [], []
        for col, c in enumerate(charges):
            labels, mat = block(c[px], c[k])
            for label, value in zip(labels, mat[:, labels.index(c[pc])]):
                if value != 0:
                    rows.append(lookup[c[:pc] + (label,) + c[pc + 1:]])
                    cols.append(col)
                    values.append(value)
        rows, cols = np.array(rows, dtype=int), np.array(cols, dtype=int)
        order = np.argsort(rows * dim + cols)
        gen = rows[order], cols[order], np.array(values, dtype=complex)[order]
        if rotated:
            rows, cols, values = _product(dim, (move[1], move[0], move[2].conj()),
                                          _product(dim, gen, move))
            values = signs[rows] * values * signs[cols]
            gen = tuple(x[values != 0] for x in (rows, cols, values))
        generators.append(gen)
    return tuple(generators)


def _outcome(build, *args):
    """The triples ``build`` returns, or the text of its MissingDataError."""
    try:
        return build(*args)
    except MissingDataError as exc:
        return str(exc)


def _same(new, old):
    """Equal texts, or nested tuples of arrays equal in dtype and bytes."""
    if isinstance(new, str) or isinstance(old, str):
        return new == old
    if isinstance(old, np.ndarray):
        return new.dtype == old.dtype and new.tobytes() == old.tobytes()
    return len(new) == len(old) and all(map(_same, new, old))


def _side_by_side_cases(su24, so52):
    gauged = complex_gauge(su24, seed=3)
    cases = reference_shapes(su24, so52)
    for _, cat, shape in reference_rep_shapes(su24, so52):
        cases.append((cat, shape))
        if cat is su24:
            cases.append((gauged, shape))
    cases += [(cat, pair_tree(cat, leaf, total)) for cat, leaf, total in (
        (su24, "1", "2"), (su24, "1", "0"), (so52, "eps", "y1"))]
    for total in so52.labels:
        cases += [(so52, comb_tree(so52, ["eps"] * n, total)) for n in range(3, 7)]
        cases += [(so52, pair_tree(so52, "eps", total)),
                  (so52, TreeShape((0, (1, (2, 3))), ("eps",) * 4, total))]
    return cases


def test_array_paths_match_tuple_paths():
    su24, so52 = builtin_category("su2_4"), builtin_category("so5_2")
    outcomes = []
    for cat, shape in _side_by_side_cases(su24, so52):
        label = format_shape(shape)
        basis, ref = enumerate_basis(cat, shape), tuple_enumerate_basis(cat, shape)
        assert basis.states == ref.states and basis.signs == ref.signs, label
        comb = enumerate_basis(cat, comb_tree(cat, shape.leaves, shape.total))
        ref_comb = tuple_enumerate_basis(cat, comb.shape)
        pairs = [(_change, cat, basis, comb), (tuple_change, cat, ref, ref_comb),
                 (_change, cat, comb, basis), (tuple_change, cat, ref_comb, ref)]
        if len(set(shape.leaves)) == 1:
            pairs += [(lambda c, b: general_generators(c, b).nonzeros, cat, basis),
                      (tuple_general_generators, cat, ref)]
        for new, old in zip(pairs[::2], pairs[1::2]):
            new, old = _outcome(*new), _outcome(*old)
            assert _same(new, old), label
            outcomes.append(old)
    missing = [x for x in outcomes if isinstance(x, str)]
    assert (len(outcomes), len(missing)) == (814, 20)
    assert "so5_2: no stored F-matrix for ('eps', 'eps', 'y1', '1')" in missing
    assert "so5_2: no stored F-matrix for ('y1', 'eps', 'eps', '1')" in missing
