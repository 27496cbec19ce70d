"""Sparse dim x dim matrices as row-major (rows, cols, values) triples.

The F-move basis changes of :mod:`metaplectic.trees` and the relation
check of :mod:`metaplectic.braidrep` both multiply matrices with few
nonzeros per row in this form.
"""

from __future__ import annotations

import numpy as np


def _nonzeros(mat):
    """Row-major (rows, cols, values) of every nonzero entry of ``mat``."""
    rows, cols = np.nonzero(mat)
    return rows, cols, mat[rows, cols]


def _summed(dim, rows, cols, values):
    """Row-major triples with the values at repeated positions added up."""
    keys, inverse = np.unique(rows * dim + cols, return_inverse=True)
    sums = np.zeros(len(keys), dtype=complex)
    np.add.at(sums, inverse, values)
    return keys // dim, keys % dim, sums


def _dense(dim, triples):
    rows, cols, values = triples
    mat = np.zeros((dim, dim), dtype=complex)
    mat[rows, cols] = values
    return mat


def _dense_product(dim, a, b):
    """Triples of a @ b by a dense matmul, for factors too full to expand."""
    return _nonzeros(_dense(dim, a) @ _dense(dim, b))


def _product(dim, a, b):
    """Triples of a @ b: each nonzero a[r, k] meets the nonzeros of row k
    of ``b``, which must be row-major.  When that pairing would produce
    more than dim^2 terms, the product is formed densely instead, so time
    and memory never exceed a dense matmul's by more than a constant."""
    a_rows, a_cols, a_vals = a
    b_rows, b_cols, b_vals = b
    starts = np.searchsorted(b_rows, np.arange(dim + 1))
    counts = np.diff(starts)[a_cols]
    if counts.sum() > dim * dim:
        return _dense_product(dim, a, b)
    left = np.repeat(np.arange(len(a_rows)), counts)
    right = np.repeat(starts[a_cols] + counts - np.cumsum(counts), counts) + np.arange(len(left))
    return _summed(dim, a_rows[left], b_cols[right], a_vals[left] * b_vals[right])
