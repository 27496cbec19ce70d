"""Unitary braid-group representations on fusion-tree bases.

Two independent constructions are provided:

* :func:`pair_tree_generators` evaluates the closed formulas for the
  three generators of B_4 on a pair-tree basis {|x_i y_i>}: sigma_1 and
  sigma_3 are the diagonals of R-symbols over the first/second pair
  charges, and sigma_2 is the double F-conjugated twist

      sigma_2[(x',y'),(x,y)] = sum_{v,w} Finv[x a a; b]_{y v}
          F[a a a; v]_{x w} R[a a]_w Finv[a a a; v]_{w x'} F[x' a a; b]_{v y'}

* :func:`general_generators` works on any shape and strand count: F-moves
  inside the subtree where strands i-1 and i meet bring that node to
  ``((X, i-1), i)`` or ``(i-1, i)``, where sigma_i is F[x a a; d] diag(R)
  F^dagger on the charge of ``(X, i-1)``, or the phase R[a a; d], gathered
  from a label-indexed table; F-moves undone give sigma_i on the basis.

Locality: braiding strands i-1 and i cannot change the charge of an edge
whose leaves hold both or neither, and the F-moves replace only edges
holding one, so each generator stores only its real nonzeros: O(1) per
row on combs and block combs, while sigma_i is dense where no edge is
fixed for it (a right comb joined to a left comb).

Positive (over-crossing) generators pick up the stored R-symbols;
inverses use the conjugate transpose.  Basis signs are folded into the
returned matrices, so the qutrit generators come out exactly in the
printed form, gamma factors included.

A :class:`BraidRep` stores each generator once, as the row-major
(rows, cols, values) triples of :mod:`metaplectic.triples` holding its
exact nonzeros (``BraidRep.nonzeros``); no dense dim x dim generator is
built.  :func:`rep_check` and :func:`metaplectic.synthesis.eval_word`
work from that form, and ``BraidRep.generators``/``BraidRep.sigma``
return fresh dense copies for the small reps that need matrices.

:func:`shape_check` checks the relations of the rep on a tree shape.  On
a left comb of one leaf type, sigma_i changes only the path charge
p_{i-1}, reading p_{i-2} and p_i (the path model of the comb reps; Wenzl,
"Hecke algebras of type A_n and subfactors", Invent. Math. 1988), so it
checks local path windows, sized by the fusion-path pass that also sizes
every basis (:func:`metaplectic.trees._paths`), and builds neither basis
rows nor generators, for any number of strands; its residuals are
:func:`rep_check`'s, float for float, and so are its errors, the budget
refusal aside.  Every other shape, and a comb too small for windows, takes
:func:`rep_check` on :func:`general_generators`, as the pair-tree models
take it on :func:`pair_tree_generators`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import (_finder, _internal_nodes, _is_comb, _paths, _rotate, _split_slots, _unpacked,
                    enumerate_basis, pair_tree)
from .triples import _dense, _keyed_product, _max_diff, _nonzeros, _product, _row_starts

__all__ = ["BraidRep", "RepReport", "pair_tree_generators", "general_generators", "rep_check",
           "shape_check"]

_EMPTY = "empty fusion space: nothing to check"  # rep_check's error, on either path


@dataclass(frozen=True, eq=False)
class BraidRep:
    """Generators sigma_1..sigma_{n-1} of a braid-group representation on
    ``n_strands`` >= 2 strands in dimension ``dim`` >= 0, each stored as the
    row-major (rows, cols, values) triples of its exact nonzeros.

    Both sizes must be integers, not bools, and are stored as ints.
    ``nonzeros`` must be a tuple of n - 1 triples, each a tuple of three
    equal-length 1-D arrays: integer rows and cols in [0, dim), numeric
    values, with row-major keys rows * dim + cols strictly increasing (no
    repeated position).  Anything else raises ``ValueError``.  Rows and
    cols are stored as ``np.intp``, so every product forms its keys
    rows * dim + cols without wrapping.  Reps compare and hash by identity.
    """

    n_strands: int
    dim: int
    nonzeros: tuple

    def __post_init__(self):
        from .synthesis import _integer  # here, so importing braidrep loads no synthesis

        n, dim = _integer(self.n_strands), _integer(self.dim)
        if n < 2 or dim < 0:
            raise ValueError(f"need at least 2 strands and dim >= 0, got {n} and {dim}")
        if not isinstance(self.nonzeros, tuple) or len(self.nonzeros) != n - 1:
            raise ValueError(f"nonzeros must be a tuple of {n - 1} triples, one per "
                             f"generator on {n} strands")
        for i, triple in enumerate(self.nonzeros, 1):
            if not (isinstance(triple, tuple) and len(triple) == 3
                    and all(isinstance(x, np.ndarray) and x.ndim == 1 for x in triple)
                    and len({len(x) for x in triple}) == 1):
                raise ValueError(f"sigma_{i}: need three equal-length 1-D arrays "
                                 "(rows, cols, values)")
            rows, cols, values = triple
            if not (np.issubdtype(rows.dtype, np.integer) and np.issubdtype(cols.dtype, np.integer)
                    and np.issubdtype(values.dtype, np.number)):
                raise ValueError(f"sigma_{i}: rows and cols must be integer, values numeric")
            if len(rows) and not (0 <= min(rows.min(), cols.min())
                                  and max(rows.max(), cols.max()) < dim):
                raise ValueError(f"sigma_{i}: a row or column lies outside 0..{dim - 1}")
            keys = rows.astype(np.int64) * dim + cols
            if np.any(keys[1:] <= keys[:-1]):
                raise ValueError(f"sigma_{i}: entries are not in strictly increasing "
                                 "row-major order")
        object.__setattr__(self, "n_strands", n)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "nonzeros", tuple(
            (rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False), values)
            for rows, cols, values in self.nonzeros))

    @property
    def generators(self):
        """Fresh dense matrices of sigma_1..sigma_{n-1}."""
        return tuple(_dense(self.dim, triples) for triples in self.nonzeros)

    def sigma(self, i):
        """Fresh dense matrix of sigma_i (positive crossing), i = 1..n-1."""
        if not 1 <= i < self.n_strands:
            raise IndexError(f"sigma_{i} outside 1..{self.n_strands - 1}")
        return _dense(self.dim, self.nonzeros[i - 1])


def pair_tree_generators(cat, a, b):
    """The B_4 generators on the 4-strand pair-tree space V^{aaaa}_b, gathered
    from ``cat.tables``; the first absent entry the formulas read, in their
    order, raises through ``cat.f``/``cat.r``."""
    basis = enumerate_basis(cat, pair_tree(cat, a, b))
    names, tables = cat.labels, cat.tables
    a, b = names.index(cat.resolve(a)), names.index(cat.resolve(b))
    _, x, y = basis.labels.T  # the pair charges x_i, y_i of state i
    pair_charges = np.flatnonzero(tables.fusion[a, a])
    signs = np.asarray(basis.signs, dtype=float)

    def r_aa(c):
        cat._raise_missing(cat.r, tables.r_missing[a, a, c], a, a, c)
        return tables.r[a, a, c]

    sigma1, sigma3 = np.diag(r_aa(x)), np.diag(r_aa(y))

    # per v: outer[i] = F[x_i a a; b]_{v y_i}, inner[i, w] = F[a a a; v]_{x_i w}
    sigma2 = np.zeros((basis.dim, basis.dim), dtype=complex)
    for v in range(len(names)):
        cat._raise_missing(cat.f, tables.f_missing[x, a, a, b] & tables.rows[x, a, a, b, v]
                           & tables.cols[x, a, a, b, y], x, a, a, b)
        outer = tables.f[x, a, a, b, v, y]
        if not outer.any():
            continue
        twist = r_aa(pair_charges)
        cat._raise_missing(cat.f, tables.f_missing[a, a, a, v] & tables.rows[a, a, a, v, x].any(),
                           a, a, a, v)  # a missing block is admissible: a column of it is read
        inner = tables.f[a, a, a, v][x[:, None], pair_charges]
        sigma2 += outer.conj()[:, None] * ((inner * twist) @ inner.conj().T) * outer
    sigma2 = signs[:, None] * sigma2.T * signs[None, :]
    return BraidRep(4, basis.dim, tuple(_nonzeros(g) for g in (sigma1, sigma2, sigma3)))


def _twists(cat, a):
    """The twist blocks of leaf ``a``: ``twists[x, d, c', c]`` =
    sum_w conj(F[x,a,a;d]_{c'w}) R[a,a;w] F[x,a,a;d]_{cw} on each block's
    own rows, zero elsewhere and on blocks that need absent data; the mask
    ``missing[x, d]`` of those blocks; and ``r_missing[x, d, w]``, the
    absent R[a,a;w] that the block (x, d) would read.  The blocks of one
    (rows, cols) size are formed as one stacked product, each matrix of it
    the same matmul, bit for bit, as the block's own."""
    tables = cat.tables
    c_rows, c_cols = tables.rows[:, a, a], tables.cols[:, a, a]  # [x, d, c]: c is a row/col
    r_missing = c_cols & tables.r_missing[a, a]
    missing = tables.f_missing[:, a, a] | r_missing.any(-1)
    twists = np.zeros((len(cat.labels),) * 4, dtype=complex)  # [x, d, c', c]
    x, d = np.nonzero(c_rows.any(-1) & ~missing)
    n_rows, n_cols = c_rows[x, d].sum(-1), c_cols[x, d].sum(-1)
    for size in set(zip(n_rows.tolist(), n_cols.tolist())):
        picked = (n_rows == size[0]) & (n_cols == size[1])
        bx, bd = x[picked], d[picked]
        rows = np.nonzero(c_rows[bx, bd])[1].reshape(len(bx), size[0])
        cols = np.nonzero(c_cols[bx, bd])[1].reshape(len(bx), size[1])
        bx, bd = bx[:, None, None], bd[:, None, None]
        # F[x,a,a;d]^* diag(R[a,a;w]) F[x,a,a;d]^T on each block's own rows and columns
        fmat = tables.f[bx, a, a, bd, rows[:, :, None], cols[:, None, :]]
        twist = tables.r[a, a, cols]
        twists[bx, bd, rows[:, :, None], rows[:, None, :]] = \
            fmat.conj() @ (twist[:, :, None] * fmat.transpose(0, 2, 1))
    return twists, missing, r_missing


def _raise_block(cat, a, x, d, r_missing):
    """Raise the ``MissingDataError`` of the twist block (x, d) of leaf
    ``a`` (:func:`_twists`): its F-matrix if absent, else its first absent
    R-symbol."""
    cat._raise_missing(cat.f, cat.tables.f_missing[x, a, a, d], x, a, a, d)
    cat._raise_missing(cat.r, r_missing[x, d], a, a, np.arange(len(cat.labels)))


def _twisted(twists, labels, find, x, c, d, pc):
    """Row-major triples of the twist acting on column ``pc`` of ``labels``
    (charge ``c`` of each row, between ``x`` and ``d``): row j goes to the
    row ``find`` locates with c' in column pc, with coefficient
    twists[x, d, c', c]."""
    coeffs = twists[x, d, :, c]
    cols, new = np.nonzero(coeffs)
    moved = labels[cols]
    moved[:, pc] = new
    rows = find(moved)
    order = np.argsort(rows * len(labels) + cols)
    return rows[order], cols[order], coeffs[cols, new][order]


def general_generators(cat, basis):
    """Braid generators on an arbitrary fusion-tree basis.

    Strands i-1 and i (0-based leaves) meet at the internal node whose left
    child ends at leaf i-1.  :func:`metaplectic.trees._rotate` runs at that
    node while its right child is internal (the meeting point moves to the
    new left child), then at its left child while that child's right child
    is internal.  The node, of charge d, then reads ``((X, i-1), i)`` and
    sigma_i changes only the charge c of ``(X, i-1)``, x that of X, by
    sigma[c', c] = sum_w conj(F[x,a,a;d]_{c'w}) R[a,a;w] F[x,a,a;d]_{cw};
    for siblings ``(i-1, i)`` it is R[a,a;d].  It is one gather from these
    twist blocks (:func:`_twists`), indexed [x, d, c', c]; the first row
    that needs absent data raises through ``cat.f``/``cat.r``.  Undoing the
    rotations gives sigma_i on the basis.  All strands must carry one anyon
    type, and ``basis`` must be a basis of ``cat``.
    """
    if basis.cat is not cat:
        raise ValueError(f"general_generators: the basis must be enumerated on {cat.name} "
                         "itself, not on another category")
    shape = basis.shape
    n = shape.n_leaves  # at least 2, as TreeShape checks
    if len(set(shape.leaves)) != 1:
        raise ValueError("general_generators requires identical leaf labels")
    a = cat.labels.index(shape.leaves[0])
    twists, missing, r_missing = _twists(cat, a)
    dim = basis.dim
    signs = np.asarray(basis.signs, dtype=float)
    identity = (np.arange(dim), np.arange(dim), np.ones(dim, dtype=complex))
    tail = np.broadcast_to([a, 0], (dim, 2))
    # the rows of every sigma_i whose node needs no rotation, sorted once
    find_unrotated = _finder(np.column_stack([basis.labels, tail]))
    generators = []
    nodes = _internal_nodes(shape.structure)
    meeting = {slot: k for k, slot in enumerate(_split_slots(shape.structure))}
    for i in range(1, n):
        k = meeting[i]  # preorder index of the node
        node, labels, move = nodes[k], basis.labels, identity
        while not isinstance(node[1], int):
            node, labels, rotation = _rotate(cat, shape, node, k, labels)
            move = _product(dim, rotation, move)
            node, k = node[0], k + 1
        left = node[0]
        while not isinstance(left, int) and not isinstance(left[1], int):
            left, labels, rotation = _rotate(cat, shape, left, k + 1, labels)
            move = _product(dim, rotation, move)
        # extended by the columns (a, unit), a row holds d at k and c, x at pc, px
        pc, px = ((-2, -1) if isinstance(left, int)
                  else (k + 1, -2 if isinstance(left[0], int) else k + 2))
        extended = np.column_stack([labels, tail])
        x, d = extended[:, px], extended[:, k]
        for j in np.flatnonzero(missing[x, d])[:1]:
            _raise_block(cat, a, x[j], d[j], r_missing)
        gen = _twisted(twists, extended, find_unrotated if move is identity else _finder(extended),
                       x, extended[:, pc], d, pc)
        if move is not identity:
            # only trees._GOLDEN pair trees have signs; unrotated, sigma_i is diagonal there
            rows, cols, values = _product(dim, (move[1], move[0], move[2].conj()),
                                          _product(dim, gen, move))
            values = signs[rows] * values * signs[cols]
            gen = tuple(x[values != 0] for x in (rows, cols, values))
        generators.append(gen)
    return BraidRep(n, dim, tuple(generators))


@dataclass
class RepReport:
    """Residual maxima over the defining relations of a braid rep."""

    unitarity_max: float
    braid_max: float
    far_commutation_max: float

    def ok(self):
        """All residuals below 1e-9; a NaN residual fails."""
        return all(res < 1e-9 for res in
                   (self.unitarity_max, self.braid_max, self.far_commutation_max))


def _word(dim, left, *factors):
    """``(keys, values)`` of the product of the triples ``left`` and
    ``factors``, each a pair of row-major triples and their row starts
    (:func:`metaplectic.triples._row_starts`)."""
    *middle, (right, starts) = factors
    for factor, factor_starts in middle:
        left = _product(dim, left, factor, factor_starts)
    return _keyed_product(dim, left, right, starts)


def _unit_and_braid(dim, nonzeros, states):
    """The generators' (triples, row starts) pairs, the unitarity residual
    of each and the braid residual of each consecutive pair, for row-major
    triples on dim x dim matrices whose first ``states`` rows and columns
    hold the space (the rest are empty)."""
    gens = [(gen, _row_starts(dim, gen[0])) for gen in nonzeros]
    eye = (np.arange(states) * (dim + 1), np.ones(states))
    unit = [_max_diff(_word(dim, (gen[1], gen[0], gen[2].conj()), (gen, starts)), eye)
            for gen, starts in gens]
    braid = [_max_diff(_word(dim, a[0], b, a), _word(dim, b[0], a, b))
             for a, b in zip(gens, gens[1:])]
    return gens, unit, braid


def _report(unit, braid, far):
    return RepReport(*(float(np.max(res, initial=0.0)) for res in (unit, braid, far)))


def rep_check(rep):
    """Exact residuals of unitarity, braid, and far-commutation relations.

    Each residual is the max |entry| of sigma_i^dagger sigma_i - 1,
    sigma_i sigma_{i+1} sigma_i - sigma_{i+1} sigma_i sigma_{i+1}, or
    sigma_i sigma_j - sigma_j sigma_i (|i - j| >= 2) over the whole matrix.
    Products are formed from the generators' nonzeros, one term per pair
    (nonzero a[r, k], nonzero in row k of b); every right factor is a
    generator, whose row starts are counted once.  With O(1) nonzeros per
    row (combs, block combs) a product costs O(dim) when its terms come out
    in row-major order and O(dim log dim) when they must be sorted, rather
    than dim^3.  A product that would need more than dim^2 terms (dense
    generators, as on shapes where no edge is fixed for some sigma_i) is
    formed with a dense matmul.  Each relation is checked alone: its two
    sides are summed once each and compared on their aligned positions
    (:func:`metaplectic.triples._max_diff`).  A NaN entry yields a NaN
    residual; an empty space raises ``ValueError``.
    """
    dim = rep.dim
    if dim == 0:
        raise ValueError(_EMPTY)
    gens, unit, braid = _unit_and_braid(dim, rep.nonzeros, dim)
    far = [_max_diff(_word(dim, a[0], b), _word(dim, b[0], a))
           for i, a in enumerate(gens) for b in gens[i + 2:]]
    return _report(unit, braid, far)


def shape_check(cat, shape):
    """``(dim, report)`` of the braid rep on ``shape``: the report is
    ``rep_check(general_generators(cat, enumerate_basis(cat, shape)))``,
    float for float, and every error is the one that call raises, save the
    1 GiB refusal of :func:`metaplectic.trees.enumerate_basis` on a nonempty
    comb past the generator bound: a left comb of one leaf type is checked
    on local path windows (:func:`_comb_windows`), which form neither rows
    nor generators, for any number of strands.  Every other shape, and a
    comb whose windows defer, takes that call, budget and all.
    """
    leaves = {cat.resolve(leaf) for leaf in shape.leaves}
    if len(leaves) == 1 and _is_comb(shape.structure):
        checked = _comb_windows(cat, shape)
        if checked is not None:
            return checked
    basis = enumerate_basis(cat, shape)
    return basis.dim, rep_check(general_generators(cat, basis))


def _comb_windows(cat, shape):
    """``(dim, rep_check report)`` of the left comb ``shape`` (one leaf type
    a) from local path windows, or None where the global check must run.

    Write p_0 = a, p_j for the charge of leaves 0..j (p_{n-1} the total)
    and p_{-1} for the unit.  sigma_i changes only p_{i-1}, by the twist
    block (p_{i-2}, p_i) of :func:`_twists`, as in :func:`general_generators`;
    the comb basis orders its states lexicographically, the last charge
    first.  So every entry of a relation's residual depends only on a window
    of charges, bit for bit: its terms are the same values, multiplied and
    summed in the same order, as the window's own states sort the same way.
    A window occurs when its ends lie on one path.  ``dim`` and the charges
    p_t carries on a path, at the comb's preorder subtree n-1-t, are those
    of :func:`metaplectic.trees._paths` (memoised bitmasks), so a long comb
    costs a few dict lookups per strand and numpy work per distinct set.

    * Unitarity and braid relations: sigma_A and sigma_B act on c and d of
      the states (x, c, d, e) with x -> c -> d -> e under fusion with a,
      over every (x, e) that occurs for some i as (p_{i-2}, p_{i+1}).  They
      are checked by the global kernel on that space, embedded in at least
      m^3 dimensions, m the largest twist block, so that no product takes
      the dense fallback; the global check takes none either, as it runs
      here only for dim >= m^3.
    * Far commutation: each entry of sigma_i sigma_j (j >= i + 2) is one
      term u v, u from sigma_i and v from sigma_j, and of sigma_j sigma_i
      the term v u, so the residual is the max |(uv + 0) - (vu + 0)| over
      the pairs of twist entries whose blocks occur on one path
      (:func:`_far_blocks`).

    An empty space raises :func:`rep_check`'s error, and a window that needs
    absent data the ``MissingDataError`` :func:`general_generators` raises,
    at the row :func:`_first_missing` finds.  Returns None for fewer than 3
    strands or dim < m^3.
    """
    n, tables = shape.n_leaves, cat.tables
    a = cat.labels.index(cat.resolve(shape.leaves[0]))
    step = tables.fusion[:, a]  # [q, q']: q x a -> q'
    blocks = tables.rows[:, a, a]  # [x, d, c]: x -> c -> d
    m = int(blocks.sum(-1).max())
    dim, marks = _paths(cat, shape)
    if dim == 0:
        raise ValueError(_EMPTY)
    if n < 3 or dim < m ** 3:
        return None
    twists, missing, r_missing = _twists(cat, a)
    sets = [1] + marks[n - 1::-1]  # sets[t]: the charges p_{t-1} carries on a path
    bits = _unpacked(sets, len(cat.labels))
    # braid windows (x, e) = (p_{i-2}, p_{i+1}), i = 1..n-2
    ends = np.any([np.outer(bits[f], bits[b])
                   for f, b in {(sets[i - 1], sets[i + 2]) for i in range(1, n - 1)}], axis=0)
    e, d, c, x = np.nonzero(ends.T[:, None, None, :] & step.T[:, :, None, None]
                            & step.T[None, :, :, None] & step.T[None, None, :, :])
    if missing[x, d].any() or missing[c, e].any():
        _raise_block(cat, a, *_first_missing(step, missing, sets, bits), r_missing)
    labels = np.column_stack([e, d, c, x])
    find, states = _finder(labels), len(labels)
    sigma_a = _twisted(twists, labels, find, x, c, d, 2)
    sigma_b = _twisted(twists, labels, find, c, d, e, 1)
    _, unit, braid = _unit_and_braid(max(states, m ** 3), (sigma_a, sigma_b), states)
    far = _far_blocks(step, blocks.any(-1), sets, bits)
    bx, bd, rows, cols = np.nonzero(twists)
    values = twists[bx, bd, rows, cols]
    first, second = np.nonzero(far[bx[:, None], bd[:, None], bx, bd])
    u, v = values[first], values[second]
    commutation = np.abs((u * v + 0.0) - (v * u + 0.0))
    return dim, _report(unit, braid, [commutation.max(initial=0.0)])


def _first_missing(step, missing, sets, bits):
    """The twist block (x, d) at which :func:`general_generators` raises on
    a comb whose path charge p_{t-1} carries the set ``sets[t]`` (bitmasks,
    unpacked by ``bits``): (p_{i-2}, p_i) of the first sigma_i with a row
    whose block is ``missing``, on its first such row in basis order, the
    lexicographic order of (p_{n-2}, ..., p_1), found without forming rows.

    A pair x -> c -> d with x and d on a path has c on one too, so sigma_i
    meets the blocks ``ends`` allows between the sets of p_{i-2} and p_i.
    ``below[t - i]`` holds the charges p_t has on a row that reaches such a
    block below it; from the total down, each p_t is the least of them that
    fuses into p_{t+1}, then c = p_{i-1} and x = p_{i-2} the least ones
    that close a missing block under d = p_i."""
    ends, n = missing & (step @ step), len(sets) - 1
    for i in range(1, n):
        hit = (bits[sets[i - 1]][:, None] & ends & bits[sets[i + 1]]).any(0)
        if hit.any():
            break
    below = [hit]
    for t in range(i + 1, n):
        below.append((below[-1] @ step) & bits[sets[t + 1]])
    d = int(np.argmax(below[-1]))  # the total
    for t in range(n - 2, i - 1, -1):
        d = int(np.argmax(below[t - i] & step[:, d]))
    xs = bits[sets[i - 1]] & missing[:, d]
    c = int(np.argmax(step[:, d] & (xs @ step)))
    return int(np.argmax(xs & step[:, c])), d


def _far_blocks(step, has_block, sets, bits):
    """far[x, d, y, f]: a block (x, d) of sigma_i and a block (y, f) of
    sigma_j, j >= i + 2, occur on one path of the comb whose path charge
    p_{t-1} carries the set ``sets[t]`` (bitmasks, unpacked by ``bits``).

    The recursion runs down i = n-3..1 on later[d, y, f]: from p_i = d a
    path reaches y at p_{j-2} and f at p_j through the block (y, f).  Each
    later is formed once per distinct (later, set of p_{i+2}), and each
    (set of p_{i-2}, later) pair joins far once: two dict lookups a strand."""
    size, n = len(step), len(sets) - 1
    own_blocks = np.eye(size, dtype=bool)[:, :, None] & has_block  # [d, y, f]: y = d
    later = [np.zeros((size,) * 3, dtype=bool)]
    known, moves, met, at = {later[0].tobytes(): 0}, {}, set(), 0
    for i in range(n - 3, 0, -1):
        key = at, sets[i + 3]
        if key not in moves:
            new = (step @ later[at].reshape(size, -1)).reshape(later[at].shape)
            new |= own_blocks & bits[key[1]]
            moves[key] = known.setdefault(new.tobytes(), len(later))
            if moves[key] == len(later):
                later.append(new)
        at = moves[key]
        met.add((sets[i - 1], at))
    far = np.zeros((size,) * 4, dtype=bool)
    for f, at in met:
        far |= (bits[f][:, None] & has_block)[:, :, None, None] & later[at][None]
    return far
