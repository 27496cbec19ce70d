"""Sparse dim x dim matrices as row-major (rows, cols, values) triples.

The F-move basis changes of :mod:`metaplectic.trees` and the relation
check of :mod:`metaplectic.braidrep` both multiply matrices with few
nonzeros per row in this form.  A product expands one term per pair
(nonzero a[r, k], nonzero in row k of b) and adds up the terms that land
on one position.  Row k of b starts where the nonzeros of rows 0..k-1
end: one count of b's rows and a cumulative sum give every start (row
pointers, as in Gustavson's row-wise sparse product), in time linear in
the nonzeros and rows, with no search; a caller that multiplies by one
factor many times counts its row starts once.  Terms that come out in
strictly increasing row-major order are already summed.  Otherwise a
stable sort groups them by key; only when some key repeats does
``np.bincount`` add each group's real and imaginary parts one after the
other in order of appearance, as ``np.add.at`` does.  A lone term gets
+0.0 added, as ``np.bincount`` adds it, so every path gives the same
bytes.
"""

from __future__ import annotations

import numpy as np


def _nonzeros(mat):
    """Row-major (rows, cols, values) of every nonzero entry of ``mat``."""
    rows, cols = np.nonzero(mat)
    return rows, cols, mat[rows, cols]


def _summed(keys, values):
    """The sorted distinct ``keys`` and the sum of the ``values`` at each,
    added sequentially in order of appearance, as complex numbers."""
    if np.any(keys[1:] <= keys[:-1]):
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        first = np.empty(len(keys), dtype=bool)
        first[0] = True  # there are two or more keys, as fewer are in order
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        if not first.all():
            group = np.cumsum(first) - 1
            sums = np.empty(group[-1] + 1, dtype=complex)
            sums.real = np.bincount(group, weights=values.real)
            sums.imag = np.bincount(group, weights=values.imag)
            return keys[first], sums
    return keys, np.add(values, 0.0, dtype=complex)  # what np.bincount makes of a lone term


def _dense(dim, triples):
    rows, cols, values = triples
    mat = np.zeros((dim, dim), dtype=complex)
    mat[rows, cols] = values
    return mat


def _dense_product(dim, a, b):
    """Triples of a @ b by a dense matmul, for factors too full to expand."""
    return _nonzeros(_dense(dim, a) @ _dense(dim, b))


def _row_starts(dim, rows):
    """Where each row of a row-major dim x dim matrix with nonzero rows
    ``rows`` starts: element k is the count of nonzeros in rows before k,
    so an empty row (leading, interior or trailing) starts where the next
    one does, and element dim is the count of all."""
    starts = np.zeros(dim + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=dim), out=starts[1:])
    return starts


def _keyed_product(dim, a, b, b_starts=None):
    """Row-major ``(keys, values)`` of a @ b for dim x dim matrices; ``b``
    must be row-major, ``a`` need not be.  Each nonzero a[r, k] meets the
    nonzeros of row k of ``b``, from ``b_starts[k]`` to ``b_starts[k + 1]``
    (:func:`_row_starts` of b, counted here unless given).  A product that
    would produce more than dim^2 terms is formed by a dense matmul
    instead, so time and memory never exceed a dense matmul's by more than
    a constant."""
    a_rows, a_cols, a_vals = a
    b_rows, b_cols, b_vals = b
    if b_starts is None:
        b_starts = _row_starts(dim, b_rows)
    starts = b_starts[a_cols]
    counts = b_starts[a_cols + 1] - starts
    if counts.sum() > dim * dim:
        rows, cols, values = _dense_product(dim, a, b)
        return rows * dim + cols, values
    left = np.repeat(np.arange(len(a_rows)), counts)
    right = np.repeat(starts + counts - np.cumsum(counts), counts) + np.arange(len(left))
    return _summed(a_rows[left] * dim + b_cols[right], a_vals[left] * b_vals[right])


def _product(dim, a, b, b_starts=None):
    """Row-major triples of a @ b, as :func:`_keyed_product` forms it."""
    keys, values = _keyed_product(dim, a, b, b_starts)
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
