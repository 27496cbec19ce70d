"""Unitary braid-group representations on fusion-tree bases.

Two independent constructions are provided:

* :func:`pair_tree_generators` evaluates the closed formulas for the
  three generators of B_4 on a pair-tree basis {|x_i y_i>}: sigma_1 and
  sigma_3 are the diagonals of R-symbols over the first/second pair
  charges, and sigma_2 is the double F-conjugated twist

      sigma_2[(x',y'),(x,y)] = sum_{v,w} Finv[x a a; b]_{y v}
          F[a a a; v]_{x w} R[a a]_w Finv[a a a; v]_{w x'} F[x' a a; b]_{v y'}

* :func:`general_generators` works on any shape and strand count.  On the
  left comb, sigma_1 is diag R[a a; c_1] and sigma_i (i >= 2) mixes only
  the comb charge c_{i-1}, through F[c_{i-2} a a; c_i] diag(R) F^dagger;
  other shapes conjugate all generators by one change to the comb basis.

Positive (over-crossing) generators pick up the stored R-symbols;
inverses use the conjugate transpose.  Basis signs are folded into the
returned matrices, so the qutrit generators come out exactly in the
printed form, gamma factors included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import comb_tree, enumerate_basis, pair_tree, tree_change

__all__ = ["BraidRep", "RepReport", "pair_tree_generators", "general_generators", "rep_check"]


@dataclass(frozen=True)
class BraidRep:
    """Generator matrices sigma_1..sigma_{n-1} on a fusion-tree basis."""

    cat: object
    basis: object
    generators: tuple

    @property
    def n_strands(self):
        return self.basis.shape.n_leaves

    @property
    def dim(self):
        return self.basis.dim

    def sigma(self, i):
        """Matrix of sigma_i (positive crossing), i = 1..n-1."""
        return self.generators[i - 1]


def _f_entry(cat, a, b, c, d, n, m):
    """F[a,b,c;d]_{n,m}, zero-extended outside the admissible index sets.

    Raises MissingDataError only when the entry genuinely exists in the
    theory but is absent from a partial table.
    """
    rows = cat.f_rows(a, b, c, d)
    cols = cat.f_cols(a, b, c, d)
    if n not in rows or m not in cols:
        return 0.0
    return cat.f(a, b, c, d)[rows.index(n), cols.index(m)]


def pair_tree_generators(cat, a, b):
    """The B_4 generators on the 4-strand pair-tree space V^{aaaa}_b."""
    a, b = cat.resolve(a), cat.resolve(b)
    basis = enumerate_basis(cat, pair_tree(cat, a, b))
    states = basis.states
    dim = basis.dim
    signs = np.asarray(basis.signs, dtype=float)

    sigma1 = np.diag([cat.r(a, a, x) for x, _ in states]).astype(complex)
    sigma3 = np.diag([cat.r(a, a, y) for _, y in states]).astype(complex)

    sigma2 = np.zeros((dim, dim), dtype=complex)
    pair_charges = sorted(cat.fuse(a, a), key=cat.labels.index)
    for i, (x, y) in enumerate(states):
        for j, (xp, yp) in enumerate(states):
            acc = 0.0
            for v in cat.labels:
                left = np.conj(_f_entry(cat, x, a, a, b, v, y))
                right = _f_entry(cat, xp, a, a, b, v, yp)
                if left == 0.0 or right == 0.0:
                    continue
                mid = 0.0
                for w in pair_charges:
                    mid += (_f_entry(cat, a, a, a, v, x, w)
                            * cat.r(a, a, w)
                            * np.conj(_f_entry(cat, a, a, a, v, xp, w)))
                acc += left * mid * right
            sigma2[j, i] = acc
    sigma2 = signs[:, None] * sigma2 * signs[None, :]
    return BraidRep(cat, basis, (sigma1, sigma2, sigma3))


def general_generators(cat, basis):
    """Braid generators on an arbitrary fusion-tree basis.

    On the left comb, with c_k the charge of leaves 0..k (c_0 = a, and
    c_{-1} the unit), sigma_i changes only c_{i-1}, by the F-conjugated twist
    sigma_i[n', n] = sum_w conj(F[c_{i-2},a,a;c_i]_{n'w}) R[a,a;w] F[...]_{nw}.
    Any other shape gets all generators by one conjugation with the comb
    basis change.  All strands must carry the same anyon type (braiding
    distinct types maps to a different space).
    """
    shape = basis.shape
    n = shape.n_leaves
    if n < 2:
        raise ValueError("need at least 2 strands")
    if len(set(shape.leaves)) != 1:
        raise ValueError("general_generators requires identical leaf labels")
    a = shape.leaves[0]
    comb_shape = comb_tree(cat, shape.leaves, shape.total)
    comb = basis if shape == comb_shape else enumerate_basis(cat, comb_shape)
    blocks = {}

    def block(x, d):
        """Row labels of F[x,a,a;d] and sigma on them, indexed [n', n]."""
        if (x, d) not in blocks:
            fmat = cat.f(x, a, a, d)
            twist = np.array([cat.r(a, a, w) for w in cat.f_cols(x, a, a, d)])
            blocks[x, d] = cat.f_rows(x, a, a, d), fmat.conj() @ (twist[:, None] * fmat.T)
        return blocks[x, d]

    # a comb labeling is c_{n-2}..c_1; extended, c_k sits at position n-1-k
    charges = [(shape.total,) + lab + (a, cat.unit) for lab in comb.states]
    index = {c: k for k, c in enumerate(charges)}
    signs = np.asarray(comb.signs, dtype=float)
    generators = []
    for i in range(1, n):
        gen = np.zeros((comb.dim, comb.dim), dtype=complex)
        p = n - i  # position of c_{i-1}
        for col, c in enumerate(charges):
            rows, mat = block(c[p + 1], c[p - 1])
            for r, label in enumerate(rows):
                gen[index[c[:p] + (label,) + c[p + 1:]], col] = mat[r, rows.index(c[p])]
        generators.append(signs[:, None] * gen * signs[None, :])
    if comb is not basis:
        move = tree_change(cat, basis, comb)
        generators = [move.conj().T @ g @ move for g in generators]
    return BraidRep(cat, basis, tuple(generators))


@dataclass
class RepReport:
    """Residual maxima over the defining relations of a braid rep."""

    unitarity_max: float
    braid_max: float
    far_commutation_max: float

    def ok(self, tol=1e-9):
        return max(self.unitarity_max, self.braid_max, self.far_commutation_max) < tol


def rep_check(rep):
    """Exact residuals of unitarity, braid, and far-commutation relations."""
    gens = rep.generators
    dim = rep.dim
    eye = np.eye(dim)
    unit = max((abs(g.conj().T @ g - eye).max() for g in gens), default=0.0)
    braid = 0.0
    for i in range(len(gens) - 1):
        lhs = gens[i] @ gens[i + 1] @ gens[i]
        rhs = gens[i + 1] @ gens[i] @ gens[i + 1]
        braid = max(braid, abs(lhs - rhs).max())
    far = 0.0
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            far = max(far, abs(gens[i] @ gens[j] - gens[j] @ gens[i]).max())
    return RepReport(unit, braid, far)
