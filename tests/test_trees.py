"""Fusion-tree bases, F-move basis changes, block embeddings."""

import numpy as np
import pytest

from metaplectic.categories import InadmissibleError, builtin_category
from metaplectic.trees import (block_comb_tree, block_embedding, comb_tree,
                               enumerate_basis, format_shape,
                               pair_tree, parse_shape, tree_change, TreeShape)


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


def test_tree_change_mismatch_errors(su24):
    one = enumerate_basis(su24, pair_tree(su24, "eps", "y"))
    other = enumerate_basis(su24, pair_tree(su24, "eps", "0"))
    with pytest.raises(InadmissibleError):
        tree_change(su24, one, other)


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
