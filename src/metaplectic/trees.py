"""Fusion-tree bases and F-move basis changes.

A tree shape is a full binary tree over ordered, labeled leaves with a
fixed total charge at the root.  A basis state assigns an admissible
charge to every internal edge; the assignment is recorded as a tuple of
labels over the internal nodes in preorder (root excluded, since its
charge is the total).

Basis changes between shapes are composed from elementary rotations
``(X (Y Z)) -> ((X Y) Z)`` whose coefficients are F-matrix entries; any
two shapes are connected through the left comb, which makes move paths
deterministic and results bit-reproducible.  A rotation acts on the
labeling tuples directly (it inserts the new ``(X Y)`` charge and drops
the old ``(Y Z)`` one) and is held as a sparse dim x dim matrix in the
row-major triple format of :mod:`metaplectic.triples`; the moves to the
comb are sparse products of rotations.

Computational bases for the shipped qudit models carry a fixed state
order and per-state signs (the qutrit basis is {-|YY>, |1Y>, |Y1>}); all
other bases are ordered lexicographically in the category's label order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .categories import InadmissibleError
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
        slots = _leaf_slots(self.structure)
        if slots != tuple(range(len(self.leaves))):
            raise ValueError(f"structure slots {slots} do not match {len(self.leaves)} leaves")
        if len(self.leaves) < 2:
            raise ValueError("a fusion tree needs at least 2 leaves")

    @property
    def n_leaves(self):
        return len(self.leaves)

    @property
    def edge_leaves(self):
        """Leaf slots under each internal edge, in labeling order: the
        charge of edge k is the total charge of leaves ``edge_leaves[k]``."""
        return tuple(_leaf_slots(_subtree(self.structure, path))
                     for path in _internal_paths(self.structure)[1:])


def _leaf_slots(structure):
    if isinstance(structure, int):
        return (structure,)
    left, right = structure
    return _leaf_slots(left) + _leaf_slots(right)


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


def _comb_structure(n):
    return reduce(lambda acc, i: (acc, i), range(1, n), 0)


def pair_tree(cat, leaf, total):
    """The 4-leaf shape ((a a)(a a)) -> total used by the 1-qudit models."""
    leaf = cat.resolve(leaf)
    return TreeShape(((0, 1), (2, 3)), (leaf,) * 4, cat.resolve(total))


def comb_tree(cat, leaves, total):
    """Left-nested comb (((l0 l1) l2) ...) -> total."""
    leaves = tuple(cat.resolve(l) for l in leaves)
    return TreeShape(_comb_structure(len(leaves)), leaves, cat.resolve(total))


def block_comb_tree(cat, leaf, n_blocks, total):
    """Left comb of ``n_blocks`` pair-tree blocks of four ``leaf`` anyons."""
    blocks = [((4 * k, 4 * k + 1), (4 * k + 2, 4 * k + 3)) for k in range(n_blocks)]
    structure = reduce(lambda acc, x: (acc, x), blocks[1:], blocks[0])
    leaf = cat.resolve(leaf)
    return TreeShape(structure, (leaf,) * (4 * n_blocks), cat.resolve(total))


@dataclass(frozen=True)
class FusionTreeBasis:
    """Ordered admissible labelings of a tree shape, with per-state signs
    identifying computational basis vectors (state i is signs[i] times the
    bare labeling)."""

    cat: object
    shape: TreeShape
    states: tuple  # tuple of labeling tuples (preorder internal nodes, root excluded)
    signs: tuple

    @property
    def dim(self):
        return len(self.states)

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

    States are sorted lexicographically in the category's label order,
    except for the registered computational bases, whose printed order and
    signs are kept.
    """
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
        return FusionTreeBasis(cat, shape, golden_states, signs)
    return FusionTreeBasis(cat, shape, tuple(states), (1,) * len(states))


def _to_comb(cat, basis):
    """Rewrite a basis into the left comb: returns the comb labelings and
    the move, as row-major triples, taking basis coordinates to them.  It
    is the product of :func:`_rotate` at the highest node of the left
    spine whose right child is internal, until there is none."""
    shape, dim = basis.shape, basis.dim
    labelings = list(basis.states)
    move = (np.arange(dim), np.arange(dim), np.ones(dim, dtype=complex))
    blocks = {}
    node, k = shape.structure, 0
    while not isinstance(node, int):
        if isinstance(node[1], int):
            node, k = node[0], k + 1
        else:
            node, labelings, rotation = _rotate(cat, shape, node, k, labelings, blocks)
            move = _product(dim, rotation, move)  # only the right factor must be row-major
    return labelings, move


def _rotate(cat, shape, node, k, labelings, blocks):
    """The F-move ``(X (Y Z)) -> ((X Y) Z)`` at ``node``, preorder index k
    of the current tree (0 is the root; ``blocks`` caches F-blocks).
    With ``(Y Z)`` at labeling index im, a labeling ``lab`` goes to
    ``lab[:k] + (u,) + lab[k:im] + lab[im+1:]`` with coefficient
    conj(F[x,y,z;w])[u, m], summed over the charge m of ``(Y Z)``.
    Returns the rotated node, the new labelings and the rotation as
    column-ordered (rows, cols, values) triples between the two.
    """
    x_part, (y_part, z_part) = node
    im = k + len(_leaf_slots(x_part)) - 1  # a subtree of L leaves has L - 1 internal nodes
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


def tree_change(cat, basis_from, basis_to):
    """Unitary basis change between two shapes over the same leaves and
    total charge, composed from F-moves through the left comb.

    Signs of both computational bases are folded in, so coordinates map
    to coordinates.  Raises ``MissingDataError`` if a required F-entry is
    absent and ``InadmissibleError`` on mismatched leaves or total.
    """
    return _dense(basis_from.dim, _change(cat, basis_from, basis_to))


def _change(cat, basis_from, basis_to):
    """:func:`tree_change` as row-major (rows, cols, values) triples."""
    if basis_from.shape.leaves != basis_to.shape.leaves:
        raise InadmissibleError("tree_change: leaf labels differ")
    if basis_from.shape.total != basis_to.shape.total:
        raise InadmissibleError("tree_change: total charges differ")
    labs_f, move_from = _to_comb(cat, basis_from)
    labs_t, (rows_t, cols_t, values_t) = _to_comb(cat, basis_to)
    if sorted(labs_f) != sorted(labs_t):
        raise AssertionError("comb bases disagree; inconsistent inputs")
    dim = basis_from.dim
    index = {lab: r for r, lab in enumerate(labs_f)}
    rows_t = np.array([index[lab] for lab in labs_t], dtype=int)[rows_t]
    rows, cols, values = _product(dim, (cols_t, rows_t, values_t.conj()), move_from)
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
    block_shape = pair_tree(cat, leaf, block_total)
    block_basis = enumerate_basis(cat, block_shape)
    if block_basis.dim == 0:
        raise InadmissibleError("block basis is empty")
    if n_blocks == 1:
        if cat.resolve(total) != cat.resolve(block_total):
            raise InadmissibleError("single block: total must equal block charge")
        return np.eye(block_basis.dim, dtype=complex), block_basis, block_basis
    if n_blocks != 2:
        raise ValueError("block_embedding supports 1 or 2 blocks")
    full_shape = block_comb_tree(cat, leaf, n_blocks, total)
    full_basis = enumerate_basis(cat, full_shape)
    bt = cat.resolve(block_total)
    if cat.resolve(total) not in cat.fuse(bt, bt):
        raise InadmissibleError("block charges cannot fuse to the requested total")
    d = block_basis.dim
    mat = np.zeros((full_basis.dim, d * d), dtype=complex)
    for i, (lab_i, sign_i) in enumerate(zip(block_basis.states, block_basis.signs)):
        for j, (lab_j, sign_j) in enumerate(zip(block_basis.states, block_basis.signs)):
            labeling = (bt,) + tuple(lab_i) + (bt,) + tuple(lab_j)
            row = full_basis.index(labeling)
            mat[row, i * d + j] = sign_i * sign_j
    return mat, full_basis, block_basis


# ---------------------------------------------------------------------------
# text form, e.g. "((eps eps)(eps eps))->y"


def parse_shape(cat, text):
    """Parse a nested-parenthesis tree with leaf labels and total charge."""
    if "->" not in text:
        raise ValueError("shape text needs a '->' total charge")
    tree_text, total = text.rsplit("->", 1)
    tokens = tree_text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0
    leaves = []

    def parse_node():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of shape text")
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            left = parse_node()
            right = parse_node()
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


def format_shape(shape):
    def fmt(structure):
        if isinstance(structure, int):
            return shape.leaves[structure]
        return "(" + " ".join(fmt(child) for child in structure) + ")"

    return f"{fmt(shape.structure)}->{shape.total}"
