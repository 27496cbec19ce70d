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

Several products can be formed in one call on block-diagonal stacks:
block p of a stack of ``blocks`` dim x dim matrices holds rows and
columns p*dim .. (p+1)*dim - 1 (offset keys), and every block is summed
exactly as it would be alone.
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


def _stacked(dim, mats):
    """The block-diagonal stack of the triples ``mats`` on offset keys."""
    if len(mats) == 1:
        return mats[0]
    offsets = np.repeat(np.arange(len(mats)) * dim, [len(m[0]) for m in mats])
    rows, cols, values = (np.concatenate(part) for part in zip(*mats))
    return rows + offsets, cols + offsets, values


def _unkeyed(size, keyed):
    """Row-major triples of ``(keys, values)`` on a size x size matrix."""
    keys, values = keyed
    return (*np.divmod(keys, size), values)


def _dense(dim, triples):
    rows, cols, values = triples
    mat = np.zeros((dim, dim), dtype=complex)
    mat[rows, cols] = values
    return mat


def _dense_product(dim, a, b):
    """Triples of a @ b by a dense matmul, for factors too full to expand."""
    return _nonzeros(_dense(dim, a) @ _dense(dim, b))


def _keyed_product(dim, a, b, blocks=1):
    """Row-major ``(keys, values)`` of a @ b for stacks of ``blocks`` dim x dim
    matrices; ``b`` must be row-major, ``a`` need not be.  Each nonzero
    a[r, k] meets the nonzeros of row k of ``b``, which start at
    ``starts[k]``: the count of b's nonzeros in rows before k, so an empty
    row (leading, interior or trailing) starts where the next one does.
    A block whose pairing would produce more than dim^2 terms is formed by
    a dense matmul instead, so time and memory never exceed a dense
    matmul's by more than a constant."""
    size = blocks * dim
    a_rows, a_cols, a_vals = a
    b_rows, b_cols, b_vals = b
    row_counts = np.bincount(b_rows, minlength=size)
    starts = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(row_counts, out=starts[1:])
    counts = row_counts[a_cols]
    if blocks == 1:
        if counts.sum() > dim * dim:
            rows, cols, values = _dense_product(dim, a, b)
            return rows * dim + cols, values
        dense = ()
    else:
        a_blocks = a_rows // dim
        dense = np.flatnonzero(np.bincount(a_blocks, weights=counts, minlength=blocks) > dim * dim)
    keys, values = [], []
    for p in dense:  # each such block alone, as a single product would be
        in_a, in_b = a_blocks == p, slice(starts[p * dim], starts[(p + 1) * dim])
        block = _dense_product(dim, *((r[at] - p * dim, c[at] - p * dim, v[at])
                                      for (r, c, v), at in ((a, in_a), (b, in_b))))
        keys.append((block[0] + p * dim) * size + block[1] + p * dim)
        values.append(block[2])
        counts = np.where(in_a, 0, counts)
    left = np.repeat(np.arange(len(a_rows)), counts)
    right = np.repeat(starts[a_cols] + counts - np.cumsum(counts), counts) + np.arange(len(left))
    summed = _summed(a_rows[left] * size + b_cols[right], a_vals[left] * b_vals[right])
    if not keys:
        return summed
    # the dense blocks' keys are disjoint from the summed ones: merge, adding nothing
    keys, values = np.concatenate([summed[0], *keys]), np.concatenate([summed[1], *values])
    order = np.argsort(keys, kind="stable")
    return keys[order], values[order]


def _product(dim, a, b):
    """Row-major triples of a @ b, as :func:`_keyed_product` forms it."""
    return _unkeyed(dim, _keyed_product(dim, a, b))


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
