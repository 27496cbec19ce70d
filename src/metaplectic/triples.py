"""Sparse dim x dim matrices as row-major (rows, cols, values) triples.

The F-move basis changes of :mod:`metaplectic.trees` and the relation
check of :mod:`metaplectic.braidrep` both multiply matrices with few
nonzeros per row in this form.  A product expands one term per pair
(nonzero a[r, k], nonzero in row k of b) and adds up the terms that land
on one position: a stable sort groups them by row-major key, and
``np.bincount`` adds each group's real and imaginary parts one after the
other in order of appearance, as ``np.add.at`` does.  Row k of b starts
where the nonzeros of rows 0..k-1 end: one count of b's rows and a
cumulative sum give every start (row pointers, as in Gustavson's
row-wise sparse product), in time linear in the nonzeros and rows,
with no search.
"""

from __future__ import annotations

import numpy as np


def _nonzeros(mat):
    """Row-major (rows, cols, values) of every nonzero entry of ``mat``."""
    rows, cols = np.nonzero(mat)
    return rows, cols, mat[rows, cols]


def _summed(keys, values):
    """The sorted distinct ``keys`` and the sum of the ``values`` at each,
    added sequentially in order of appearance."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    group = np.cumsum(first) - 1
    sums = np.empty(group[-1] + 1 if len(group) else 0, dtype=complex)
    sums.real = np.bincount(group, weights=values.real[order])
    sums.imag = np.bincount(group, weights=values.imag[order])
    return keys[first], sums


def _dense(dim, triples):
    rows, cols, values = triples
    mat = np.zeros((dim, dim), dtype=complex)
    mat[rows, cols] = values
    return mat


def _dense_product(dim, a, b):
    """Triples of a @ b by a dense matmul, for factors too full to expand."""
    return _nonzeros(_dense(dim, a) @ _dense(dim, b))


def _keyed_product(dim, a, b):
    """Row-major ``(keys, values)`` of a @ b for dim x dim matrices; ``b``
    must be row-major, ``a`` need not be.  Each nonzero a[r, k] meets the
    nonzeros of row k of ``b``, which start at ``starts[k]``: the count of
    b's nonzeros in rows before k, so an empty row (leading, interior or
    trailing) starts where the next one does.  A product that would
    produce more than dim^2 terms is formed by a dense matmul instead, so
    time and memory never exceed a dense matmul's by more than a constant."""
    a_rows, a_cols, a_vals = a
    b_rows, b_cols, b_vals = b
    row_counts = np.bincount(b_rows, minlength=dim)
    counts = row_counts[a_cols]
    if counts.sum() > dim * dim:
        rows, cols, values = _dense_product(dim, a, b)
        return rows * dim + cols, values
    starts = np.zeros(dim + 1, dtype=np.intp)
    np.cumsum(row_counts, out=starts[1:])
    left = np.repeat(np.arange(len(a_rows)), counts)
    right = np.repeat(starts[a_cols] + counts - np.cumsum(counts), counts) + np.arange(len(left))
    return _summed(a_rows[left] * dim + b_cols[right], a_vals[left] * b_vals[right])


def _product(dim, a, b):
    """Row-major triples of a @ b, as :func:`_keyed_product` forms it."""
    keys, values = _keyed_product(dim, a, b)
    return (*np.divmod(keys, dim), values)


def _max_diff(lhs, rhs):
    """max |lhs - rhs| over the whole matrix, from two ``(keys, values)``
    with sorted distinct keys: |l - r| where both hold a key, |l| or |r|
    where one does, 0 off both supports.  A NaN value gives NaN.  Two sides
    with the same keys (the usual case) are compared by one subtraction,
    which is the value the search below would form."""
    l_keys, l_vals = lhs
    r_keys, r_vals = rhs
    if np.array_equal(l_keys, r_keys):
        return np.abs(l_vals - r_vals).max(initial=0.0)
    at = np.searchsorted(l_keys, r_keys)
    shared = at < len(l_keys)
    shared[shared] = l_keys[at[shared]] == r_keys[shared]
    diff = l_vals.copy()
    diff[at[shared]] -= r_vals[shared]
    return np.maximum(np.abs(diff).max(initial=0.0), np.abs(r_vals[~shared]).max(initial=0.0))
