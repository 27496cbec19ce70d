"""Fusion-tree bases and F-move basis changes.

A tree shape is a full binary tree over ordered, labeled leaves with a
fixed total charge at the root.  A basis stores its states as one
read-only array of label positions, one row per state: the total, then
the admissible charges of the internal edges in preorder, so column k is
internal node k (0 is the root).

Basis changes between shapes are composed from elementary rotations
``(X (Y Z)) -> ((X Y) Z)`` whose coefficients are F-matrix entries; any
two shapes are connected through the left comb, which makes move paths
deterministic and results bit-reproducible.  A rotation gathers
``conj(F[x,y,z,w,:,m])`` per row from the label-indexed F tensor, inserts
the new ``(X Y)`` column and drops the old ``(Y Z)`` one, and is held as
a sparse dim x dim matrix in the row-major triple format of
:mod:`metaplectic.triples`; the moves to the comb are sparse products of
rotations.

Computational bases for the shipped qudit models carry a fixed state
order and per-state signs (the qutrit basis is {-|YY>, |1Y>, |Y1>}); all
other bases are ordered lexicographically in the category's label order.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from functools import reduce

import numpy as np

from .categories import InadmissibleError, _read_only
from .triples import _dense, _product

__all__ = [
    "TreeShape",
    "FusionTreeBasis",
    "pair_tree",
    "comb_tree",
    "block_comb_tree",
    "enumerate_basis",
    "tree_change",
    "block_embedding",
    "parse_shape",
    "format_shape",
]


@dataclass(frozen=True)
class TreeShape:
    """A rooted full binary tree: nested pairs of leaf slots, the leaf
    labels, and the total (root) charge."""

    structure: object  # int leaf slot, or 2-tuple of substructures
    leaves: tuple
    total: str

    def __post_init__(self):
        if len(self.leaves) < 2:
            raise ValueError("a fusion tree needs at least 2 leaves")
        slots = _leaf_slots(self.structure)
        if slots != tuple(range(len(self.leaves))):
            raise ValueError(f"structure slots {slots} do not match {len(self.leaves)} leaves")

    @property
    def n_leaves(self):
        return len(self.leaves)


def _leaf_slots(structure):
    """The leaf slots of ``structure`` in order, walked keeping no subtree."""
    slots, stack = [], [structure]
    while stack:
        node = stack.pop()
        if isinstance(node, int):
            slots.append(node)
        else:
            stack += node[1], node[0]
    return tuple(slots)


def _internal_nodes(structure):
    """The internal nodes in preorder, the root first."""
    return [node for node, children in _subtrees(structure) if children]


def _split_slots(structure):
    """For each internal node in preorder, the first leaf slot of its right
    child: strands slot - 1 and slot meet there.  One bottom-up pass over
    :func:`_subtrees`, where a leaf-slot list per node would cost O(n^2)."""
    subtrees = _subtrees(structure)
    first = [None] * len(subtrees)
    for at in reversed(range(len(subtrees))):  # both children first
        node, children = subtrees[at]
        first[at] = first[children[0]] if children else node
    return [first[children[1]] for _, children in subtrees if children]


def _subtrees(structure):
    """Every subtree of ``structure``, leaves included, in preorder (the
    root first), each with the positions of its two children in that list,
    or () for a leaf.  A child comes after its parent, so a walk in reverse
    order meets both children of a node before the node itself.  A loop,
    not a recursion: a comb of any length fits the recursion limit."""
    subtrees, stack = [], [(structure, None)]
    while stack:
        node, parent = stack.pop()
        if parent is not None:
            subtrees[parent][1].append(len(subtrees))
        if isinstance(node, int):
            subtrees.append((node, ()))
        else:
            left, right = node
            stack += (right, len(subtrees)), (left, len(subtrees))
            subtrees.append((node, []))
    return subtrees


def pair_tree(cat, leaf, total):
    """The 4-leaf shape ((a a)(a a)) -> total used by the 1-qudit models."""
    leaf = cat.resolve(leaf)
    return TreeShape(((0, 1), (2, 3)), (leaf,) * 4, cat.resolve(total))


def comb_tree(cat, leaves, total):
    """Left-nested comb (((l0 l1) l2) ...) -> total."""
    leaves = tuple(cat.resolve(l) for l in leaves)
    return TreeShape(_comb_structure(len(leaves)), leaves, cat.resolve(total))


def _comb_structure(n):
    """The structure of the left comb on n leaves."""
    return reduce(lambda acc, i: (acc, i), range(1, n), 0)


def _is_comb(structure):
    """Whether a valid structure is the left comb: every right child on its
    left spine is a leaf.  A loop, where ``==`` on the nested tuples would
    recurse once per leaf."""
    while not isinstance(structure, int) and isinstance(structure[1], int):
        structure = structure[0]
    return isinstance(structure, int)


def block_comb_tree(cat, leaf, n_blocks, total):
    """Left comb of ``n_blocks`` pair-tree blocks of four ``leaf`` anyons."""
    blocks = [((4 * k, 4 * k + 1), (4 * k + 2, 4 * k + 3)) for k in range(n_blocks)]
    structure = reduce(lambda acc, x: (acc, x), blocks[1:], blocks[0])
    leaf = cat.resolve(leaf)
    return TreeShape(structure, (leaf,) * (4 * n_blocks), cat.resolve(total))


@dataclass(frozen=True, eq=False)
class FusionTreeBasis:
    """Ordered admissible labelings of a tree shape (row i of ``labels`` is
    state i), with per-state signs identifying computational basis vectors
    (state i is signs[i] times the bare labeling)."""

    cat: object
    shape: TreeShape
    labels: np.ndarray  # read-only, dim x (number of internal nodes)
    signs: tuple

    @property
    def dim(self):
        return len(self.labels)

    @property
    def states(self):
        """The labelings as tuples of label names, root excluded."""
        return tuple(tuple(map(self.cat.labels.__getitem__, row))
                     for row in self.labels[:, 1:].tolist())

    def index(self, labeling):
        return self.states.index(tuple(labeling))


# Models whose printed basis order and signs are frozen verbatim.
_GOLDEN = {
    ("su2_4", ((0, 1), (2, 3)), ("1",) * 4, "2"):
        ((("2", "2"), ("0", "2"), ("2", "0")), (-1, 1, 1)),
    ("su2_4", ((0, 1), (2, 3)), ("1",) * 4, "0"):
        ((("0", "0"), ("2", "2")), (1, 1)),
    ("so5_2", ((0, 1), (2, 3)), ("eps",) * 4, "y1"):
        ((("y2", "y2"), ("1", "y1"), ("y2", "y1"), ("y1", "y2"), ("y1", "1")),
         (1, 1, 1, 1, 1)),
}


def enumerate_basis(cat, shape):
    """All admissible labelings of ``shape`` (empty basis allowed).

    Leaves and total go through ``cat.resolve``.  Each node joins the rows
    of its two subtrees on the fusion tensor ``cat.tables.fusion`` into the
    charges :func:`_paths` marks for it, those of some basis row.  States
    are sorted lexicographically in the category's label order, except for
    the registered computational bases, whose printed order and signs are
    kept.  Before any row is formed, :func:`_counted` refuses a space whose
    generators would pass the 1 GiB budget of :mod:`metaplectic.synthesis`
    (an empty one never); the comb windows of
    :func:`metaplectic.braidrep.shape_check` read the same :func:`_paths`
    pass but form no rows, so the budget does not bind them.
    """
    shape, marks = _counted(cat, shape)
    labels = _joined(cat, shape, marks)
    labels = labels[np.lexsort(labels.T[::-1])]
    signs = (1,) * len(labels)
    key = (cat.name, shape.structure, shape.leaves, shape.total)
    if key in _GOLDEN:
        golden_states, signs = _GOLDEN[key]
        golden = np.array([[cat.labels.index(x) for x in (shape.total, *state)]
                           for state in golden_states])
        if not np.array_equal(np.unique(golden, axis=0), labels):
            raise AssertionError(f"golden basis mismatch for {key}")
        labels = golden
    return FusionTreeBasis(cat, shape, _read_only(labels), signs)


def _counted(cat, shape):
    """The budget of :func:`enumerate_basis`: ``shape``, labels resolved,
    and its :func:`_paths` marks; ``ValueError``, before any row is formed,
    when the least storage of the braid generators (each sigma_i unitary:
    an intp row and column and a complex value per basis row) passes the
    budget.  That bounds the row join too: each row a node joins at a
    marked charge extends to its own basis row, so a node forms at most
    ``dim`` rows of fewer than n intp labels."""
    from .synthesis import _CLOSURE_BYTES  # here, so importing trees loads no synthesis

    shape = TreeShape(shape.structure, tuple(map(cat.resolve, shape.leaves)),
                      cat.resolve(shape.total))
    dim, marks = _paths(cat, shape)
    need = dim * (shape.n_leaves - 1) * (2 * np.dtype(np.intp).itemsize + 16)
    if need > _CLOSURE_BYTES:
        gib = f"{need / 2 ** 30:.2f}" if need < 10 ** 30 else f"{Decimal(need) / 2 ** 30:.2e}"
        raise ValueError(f"the dim-{_amount(dim)} space on {shape.n_leaves} leaves needs at "
                         f"least {_amount(need)} bytes ({gib} GiB) for its braid generators, "
                         f"over the {_CLOSURE_BYTES >> 30} GiB budget")
    return shape, marks


def _amount(n):
    """``n`` in full, or as 1.234e+5678 from 31 digits on: ``str`` refuses
    an int past 4300 digits, and a float holds none past 1e308."""
    return str(n) if n < 10 ** 30 else f"{Decimal(n):.3e}"


def _paths(cat, shape):
    """The fusion paths of ``shape`` (labels resolved), any tree shape, in one
    pass on Python ints: ``(dim, marks)``, ``marks`` in the order of
    :func:`_subtrees`.

    Bottom up, a subtree has rows per root charge c: a leaf one, at its
    label; a node the rows of its children at l and at r multiplied, summed
    over l x r -> c.  ``dim``, exact at any size, is the root's rows at the
    total.  Top down, ``marks[at]`` is the bitmask of the charges ``at``
    carries in some basis row: the root the total, if it has rows there; a
    child each charge with rows that fuses, with one of its sibling's, into
    a parent mark.  A comb repeats its charge sets, so the pairs that fuse
    for each (left, right) and the marks for each (parent, left, right) are
    memoised."""
    labels = {leaf: cat.labels.index(cat.resolve(leaf)) for leaf in {*shape.leaves, shape.total}}
    size, fusion, subtrees = len(cat.labels), cat.tables.fusion.tolist(), _subtrees(shape.structure)
    # per subtree: its rows per root charge (a leaf's shared) until its parent
    # reads them, and the bitmask of the charges it has rows at
    counts, has, joins = [None] * len(subtrees), [0] * len(subtrees), {}
    one_row = [[int(c == q) for c in range(size)] for q in range(size)]
    for at in reversed(range(len(subtrees))):  # both children first
        node, children = subtrees[at]
        if not children:
            leaf = labels[shape.leaves[node]]
            counts[at], has[at] = one_row[leaf], 1 << leaf
            continue
        left, right = children
        key = has[left], has[right]
        if key not in joins:  # each (l, r, the charges of l x r) with rows on both sides
            pairs = [(l, r, [c for c in range(size) if fusion[l][r][c]])
                     for l in range(size) for r in range(size) if key[0] >> l & key[1] >> r & 1]
            joins[key] = pairs, sum({1 << c for _, _, charges in pairs for c in charges})
        pairs, has[at] = joins[key]
        left_rows, right_rows, rows = counts[left], counts[right], [0] * size
        counts[left] = counts[right] = None
        for l, r, charges in pairs:
            product = left_rows[l] * right_rows[r]
            for c in charges:
                rows[c] += product
        counts[at] = rows
    total, marks, memo = labels[shape.total], [0] * len(subtrees), {}
    marks[0] = has[0] & 1 << total
    for at, (_, children) in enumerate(subtrees):  # each parent first
        if children:
            key = marks[at], has[children[0]], has[children[1]]
            if key not in memo:
                kept = [(l, r) for l, r, charges in joins[key[1:]][0]
                        if any(key[0] >> c & 1 for c in charges)]
                memo[key] = sum({1 << l for l, _ in kept}), sum({1 << r for _, r in kept})
            marks[children[0]], marks[children[1]] = memo[key]
    return counts[0][total], marks


def _unpacked(masks, size):
    """Each distinct bitmask of ``masks`` as a bool array over ``size`` labels."""
    return {mask: np.array([mask >> q & 1 for q in range(size)], dtype=bool)
            for mask in set(masks)}


def _joined(cat, shape, marks):
    """The rows of ``shape``: the total, then the internal charges in
    preorder (the row join of :func:`enumerate_basis`), each node joining
    its subtrees' rows into the charges it ``marks`` (:func:`_paths`)."""
    subtrees = _subtrees(shape.structure)
    allowed = _unpacked(marks, len(cat.labels))
    rows = [None] * len(subtrees)
    for at in reversed(range(len(subtrees))):  # both children first
        structure, children = subtrees[at]
        if not children:
            rows[at] = np.array([[cat.labels.index(shape.leaves[structure])]])
            continue
        left, right = children
        left_rows, right_rows = rows[left], rows[right]
        rows[left] = rows[right] = None
        fuse = cat.tables.fusion & allowed[marks[at]]
        i, j, charge = np.nonzero(fuse[left_rows[:, :1], right_rows[:, 0]])
        rows[at] = np.column_stack([charge] + [part[picked] for part, picked, child in
                                               ((left_rows, i, left), (right_rows, j, right))
                                               if subtrees[child][1]])
    return rows[0]


def _keys(labels):
    """One byte string per row of ``labels``, to sort and search rows by."""
    labels = np.ascontiguousarray(labels)
    return labels.view(np.dtype((np.void, labels.itemsize * labels.shape[1]))).ravel()


def _finder(labels):
    """A function giving the position in ``labels`` of each row of its
    argument, which must all occur there; ``labels`` is sorted once."""
    order = np.argsort(keys := _keys(labels))
    keys = keys[order]
    return lambda rows: order[np.searchsorted(keys, _keys(rows))]


def _to_comb(cat, basis):
    """Rewrite a basis into the left comb: returns the comb rows and the
    move, as row-major triples, taking basis coordinates to them.  It is
    the product of :func:`_rotate` at the highest node of the left spine
    whose right child is internal, until there is none."""
    shape, dim, labels = basis.shape, basis.dim, basis.labels
    move = (np.arange(dim), np.arange(dim), np.ones(dim, dtype=complex))
    node, k = shape.structure, 0
    while not isinstance(node, int):
        if isinstance(node[1], int):
            node, k = node[0], k + 1
        else:
            node, labels, rotation = _rotate(cat, shape, node, k, labels)
            move = _product(dim, rotation, move)  # only the right factor must be row-major
    return labels, move


def _rotate(cat, shape, node, k, labels):
    """The F-move ``(X (Y Z)) -> ((X Y) Z)`` at ``node``, internal node k
    (column k of ``labels``).  With ``(Y Z)`` in column im, a row goes to
    the rows with u inserted at column k + 1 and column im dropped, with
    coefficient conj(F[x,y,z;w])[u, m] from ``cat.tables.f``; the first row
    whose F-block is missing raises through ``cat.f``.  Returns the rotated
    node, the new rows (in order of first appearance) and the rotation as
    column-ordered (rows, cols, values) triples between the two.
    """
    x_part, (y_part, z_part) = node
    im = k + len(_leaf_slots(x_part))  # a subtree of L leaves has L - 1 internal nodes
    iz = im + len(_leaf_slots(y_part))
    x, y, z = (cat.labels.index(shape.leaves[part]) if isinstance(part, int) else labels[:, col]
               for part, col in ((x_part, k + 1), (y_part, im + 1), (z_part, iz)))
    xyzw = np.broadcast_arrays(x, y, z, labels[:, k])
    cat._raise_missing(cat.f, cat.tables.f_missing[tuple(xyzw)], *xyzw)
    coeffs = cat.tables.f[(*xyzw, slice(None), labels[:, im])].conj()
    cols, u = np.nonzero(coeffs)
    rows = np.insert(np.delete(labels[cols], im, axis=1), k + 1, u, axis=1)
    moved = rows[np.sort(np.unique(_keys(rows), return_index=True)[1])]  # first appearance
    return ((x_part, y_part), z_part), moved, (_finder(moved)(rows), cols, coeffs[cols, u])


def tree_change(cat, basis_from, basis_to):
    """Unitary basis change between two shapes over the same leaves and
    total charge, composed from F-moves through the left comb.

    Signs of both computational bases are folded in, so coordinates map
    to coordinates.  Raises ``MissingDataError`` if a required F-entry is
    absent, ``InadmissibleError`` on mismatched leaves or total, and
    ``ValueError`` on a basis of another category than ``cat``.
    """
    return _dense(basis_from.dim, _change(cat, basis_from, basis_to))


def _change(cat, basis_from, basis_to):
    """:func:`tree_change` as row-major (rows, cols, values) triples."""
    if not (basis_from.cat is cat is basis_to.cat):
        raise ValueError(f"tree_change: both bases must be enumerated on {cat.name} itself, "
                         "not on another category")
    if basis_from.shape.leaves != basis_to.shape.leaves:
        raise InadmissibleError("tree_change: leaf labels differ")
    if basis_from.shape.total != basis_to.shape.total:
        raise InadmissibleError("tree_change: total charges differ")
    labs_f, move_from = _to_comb(cat, basis_from)
    labs_t, (rows_t, cols_t, values_t) = _to_comb(cat, basis_to)
    if not np.array_equal(np.sort(_keys(labs_f)), np.sort(_keys(labs_t))):
        raise AssertionError("comb bases disagree; inconsistent inputs")
    rows_t = _finder(labs_f)(labs_t)[rows_t]
    rows, cols, values = _product(basis_from.dim, (cols_t, rows_t, values_t.conj()), move_from)
    s_from = np.asarray(basis_from.signs, dtype=float)
    s_to = np.asarray(basis_to.signs, dtype=float)
    return rows, cols, s_to[rows] * values * s_from[cols]


def block_embedding(cat, leaf, block_total, n_blocks, total):
    """Isometry embedding the product of per-block computational bases
    into the full fusion-tree basis.

    Each block is a pair tree of four ``leaf`` anyons whose root edge
    carries ``block_total``.  Columns are indexed in row-major order over
    block states (first block slowest); entries are 0 or +-1.
    Supports 1 or 2 blocks (beyond that the block roots no longer pin all
    internal charges).
    """
    block_basis = enumerate_basis(cat, pair_tree(cat, leaf, block_total))
    if block_basis.dim == 0:
        raise InadmissibleError("block basis is empty")
    if n_blocks == 1:
        if cat.resolve(total) != cat.resolve(block_total):
            raise InadmissibleError("single block: total must equal block charge")
        return np.eye(block_basis.dim, dtype=complex), block_basis, block_basis
    if n_blocks != 2:
        raise ValueError("block_embedding supports 1 or 2 blocks")
    full_basis = enumerate_basis(cat, block_comb_tree(cat, leaf, n_blocks, total))
    if cat.resolve(total) not in cat.fuse(block_total, block_total):
        raise InadmissibleError("block charges cannot fuse to the requested total")
    d, blocks = block_basis.dim, block_basis.labels
    pairs = np.column_stack([np.full(d * d, full_basis.labels[0, 0]),
                             np.repeat(blocks, d, axis=0), np.tile(blocks, (d, 1))])
    mat = np.zeros((full_basis.dim, d * d), dtype=complex)
    signs = np.outer(block_basis.signs, block_basis.signs).ravel()
    mat[_finder(full_basis.labels)(pairs), np.arange(d * d)] = signs
    return mat, full_basis, block_basis


# ---------------------------------------------------------------------------
# text form, e.g. "((eps eps)(eps eps))->y"


def parse_shape(cat, text):
    """Parse a nested-parenthesis tree with leaf labels and total charge
    (in a loop, so a tree of any depth fits the recursion limit)."""
    if "->" not in text:
        raise ValueError("shape text needs a '->' total charge")
    tree_text, total = text.rsplit("->", 1)
    tokens = tree_text.replace("(", " ( ").replace(")", " ) ").split()
    # each open '(' holds its left child once that is parsed
    pos, leaves, open_pairs, structure = 0, [], [], None
    while structure is None:
        if pos >= len(tokens):
            raise ValueError("unexpected end of shape text")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            open_pairs.append([])
            continue
        if tok == ")":
            raise ValueError("unexpected ')' in shape text")
        leaves.append(cat.resolve(tok))
        node = len(leaves) - 1
        while open_pairs and open_pairs[-1]:  # node is a right child: close its pair
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError("expected ')' in shape text")
            pos += 1
            node = (open_pairs.pop()[0], node)
        if open_pairs:
            open_pairs[-1].append(node)
        else:
            structure = node
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in shape text: {tokens[pos:]}")
    return TreeShape(structure, tuple(leaves), cat.resolve(total.strip()))


def format_shape(shape):
    parts, stack = [], [shape.structure]
    while stack:  # a loop, as in parse_shape; a str on the stack is literal text
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, int):
            parts.append(shape.leaves[node])
        else:
            stack += ")", node[1], " ", node[0], "("
    return f"{''.join(parts)}->{shape.total}"
