"""Braid words, gate-identity verification, and finite group closure.

A braid word is a sequence of nonzero signed integers; ``+i``/``-i`` mean
the generator sigma_i and its inverse.  ``eval_word`` multiplies the
generator matrices in the written order, i.e. the word ``1 2 1`` maps to
the matrix product sigma_1 sigma_2 sigma_1 (the rightmost letter acts
first on state vectors).  This is the reading under which the braid words
for the multiplication gates M[k] reproduce |i> -> |k i> rather than the
transposed permutations.  Each letter is applied from the generator's
stored nonzeros (``BraidRep.nonzeros``, the one form a rep keeps) by row
gathers, or by a dense matmul, built from those nonzeros, when the
generator is too full for gathers to pay.  Gathers never mix the columns
of the (transposed) running product, so past dim 181 the word runs on
column panels sized to a private cache (``_PANEL_BYTES``), spread over
one thread per CPU the process may use, with a bit-identical result.

``group_closure`` runs a deterministic breadth-first closure under
multiplication, either projectively (elements hashed with their global
phase normalized away) or linearly after rescaling each generator to
determinant one with the principal root.  The search is vectorized: the
queue of found elements is processed a batch at a time (a whole BFS level
when it fits); each batch's products with every generator come from one
matrix product per generator, and are phase-canonicalized and keyed on a
1e-6 grid as one stack; each key is then looked up in the dictionary of
known elements, and a new one numbered as it appears.
Elements are found in the same order as by a product-by-product search
(queue first, then generator), so the cap is met at the same product.
The search keeps what it looked up: the Cayley table, the slot of x g for
every found x and generator g, and the BFS tree (each element's parent,
generator and depth).  The center and the element orders are integer
walks on that table (the regular permutation representation of the
group): x is central iff x g and g x share a slot for every generator,
g x being walked down the tree from g, and the order of x is the first k
at which the walk x^k = x x^(k-1) reaches the identity's slot.  The
matrices then certify every answer to 1e-8, through the same stack-aware
:func:`gates.phase_distance` that ``verify_identity`` uses when
projective: x^(o-1) x is the identity, no other element is, a central
element commutes with every generator and any other fails to commute
with the generator the table names.
"""

from __future__ import annotations

import operator
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gates import _anchor, _modulus, _unitary, phase_distance
from .triples import _dense

__all__ = [
    "BraidWord", "word_from_text", "eval_word", "named_words",
    "VerifyResult", "verify_identity",
    "ClosureResult", "group_closure", "det_normalize", "phase_canonical",
]


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group B_{n_strands}.

    The word stores what it validated: ``n_strands`` and the ``letters``
    as Python ints, the letters as a tuple, so equal words hash alike
    whatever integer types or sequence they were given as.
    """

    n_strands: int
    letters: tuple

    def __post_init__(self):
        n_strands, letters = _integer(self.n_strands), tuple(map(_integer, self.letters))
        for letter in letters:
            if letter == 0 or abs(letter) > n_strands - 1:
                raise ValueError(f"letter {letter} invalid for {n_strands} strands")
        object.__setattr__(self, "n_strands", n_strands)
        object.__setattr__(self, "letters", letters)

    def inverse(self):
        return BraidWord(self.n_strands, tuple(-l for l in reversed(self.letters)))

    def __mul__(self, other):
        if self.n_strands != other.n_strands:
            raise ValueError("strand counts differ")
        return BraidWord(self.n_strands, self.letters + other.letters)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return BraidWord(self.n_strands, self.letters * k)

    def __str__(self):
        return " ".join(str(l) for l in self.letters)


def _integer(value):
    """``operator.index(value)``; a bool or a non-integer raises ``ValueError``."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{value!r} is not an integer")


def word_from_text(text, n_strands):
    """Parse whitespace-separated signed generator indices."""
    letters = tuple(int(tok) for tok in text.split())
    return BraidWord(n_strands, letters)


def _su2_4_words():
    # p and q are fixed by the matrices they must produce: p^2 swaps
    # |0>,|1> and q^2 swaps |0>,|2> (each times -1) on the qutrit basis.
    p = BraidWord(4, (3, 2, 3))
    q = BraidWord(4, (1, 2, 1))
    s1 = BraidWord(8, (2, 1, 3, 2))
    s2 = BraidWord(8, (4, 3, 5, 4))
    s3 = BraidWord(8, (6, 5, 7, 6))
    return {
        "p": p,
        "q": q,
        "Hword": q * q * p * q * q,
        "s1": s1,
        "s2": s2,
        "s3": s3,
        "CZword": s1.inverse() * s2 * s2 * s1 * s3.inverse() * s2 * s2 * s3,
    }


def _so5_2_words():
    return {name: word_from_text(text, 4) for name, text in (
        ("H5", "-1 -3 2 2 -1 -3"),
        ("Z5", "1 -3"),
        ("X5", "1 2 -1 -1 3 3 -2 -1"),
        ("M5[2]", "1 1 -2 -2 -1 -3 2 1"),
        ("M5[3]", "1 1 -2 1 3 2 2 3"),
        ("M5[4]", "1 2 1 3 2 1"))}


_NAMED = {"su2_4": _su2_4_words(), "so5_2": _so5_2_words()}


def named_words(category_name):
    """Preregistered words per category, by name.

    For su2_4, p, q and Hword are 4-strand words on the qutrit model.
    s1, s2, s3 and CZword are 8-strand words on the 27-dim block-8 rep
    (two pair trees of four 1-anyons, total 2).  Only their restriction to
    its 9-dim block subspace (see :func:`metaplectic.trees.block_embedding`)
    is a gate.  ``verify suite --category su2_4`` checks CZword there.
    ``verify identity`` compares the whole matrix with the target and exits
    64 for these words.

    For so5_2, H5, Z5, X5, M5[2], M5[3] and M5[4] are 4-strand words on the
    qupit model (two eps pairs, total y1), each named after the gate it
    makes; ``verify suite --category so5_2`` checks them in that order.
    """
    return dict(_NAMED.get(category_name, {}))


def eval_word(rep, word):
    """Product of generator matrices in written order; inverse letters use
    the conjugate transpose.  The empty word is the identity.

    The running product ``out`` is held transposed, t = out^T, so that the
    next letter's factor s (sigma_i, or sigma_i^dagger for -i) acts as
    out -> out s, i.e. row c of the new t is sum_k s[k, c] t[k]: a few
    contiguous row gathers when s is sparse.  Read from ``rep.nonzeros``,
    a positive letter takes column c of sigma_i and an inverse letter row c
    of conj(sigma_i); the diagonal scales t in one pass, and each further
    nonzero a column holds costs one gather-scale-add pass over dim^2
    entries (an su2_4 comb sigma_i needs one).  A factor needing more than
    sqrt(dim - 32)/2 passes, and any factor at dim < 32, is applied by a
    dense matmul instead.  That rule follows the measured break-even, in
    passes, between the two on a 2-vCPU x86 box with numpy 2.4 and
    OpenBLAS: about 3.5 at dim 81, 7 at dim 243, 10 at dim 729 and 21 at
    dim 2187, while below dim 32 the matmul costs less than the fixed
    per-call cost of one pass.

    A gather pass never mixes columns of t, so each column evolves on its
    own.  When the three dim x dim buffers of t outgrow ``_PANEL_BYTES``
    (dim > 181), the columns are split into ceil(48 dim^2 / _PANEL_BYTES)
    panels, each about that budget, the whole word runs on each panel in
    turn, and each panel's rows of ``out`` are written into the result.
    The panel count is rounded up to a multiple of the worker count,
    ``len(os.sched_getaffinity(0))`` (else ``os.cpu_count()``); the
    calling thread and one thread per further worker each take every
    worker-th panel in buffers allocated here, and all threads are joined
    before the result is returned.  Every entry meets the same arithmetic
    as in one whole array, so the result is bit-identical.  A word with a
    dense-matmul letter runs as one panel in the calling thread (a matmul
    on panels can round differently), as does a dim that fits the budget
    (there threads cost more than they gain).

    A result and panel buffers of more than ``_CLOSURE_BYTES`` (1 GiB)
    raise ``ValueError`` before anything dim x dim is allocated: gather
    words fit up to dim 6561 (the 18-strand comb), words with a dense
    letter up to dim 4096.
    """
    _check_strands(rep, word)
    dim = rep.dim
    factors = {letter: _letter_factor(rep, letter) for letter in set(word.letters)}
    if 48 * dim * dim <= _PANEL_BYTES or any(dense for _, dense in factors.values()):
        workers, count = 1, 1
    else:
        workers = _workers()
        count = -(-48 * dim * dim // _PANEL_BYTES)
        count += -count % workers
    width = -(-dim // count)
    need = 16 * dim * (dim + 3 * workers * width)
    if need > _CLOSURE_BYTES:
        raise ValueError(f"a word on the dim-{dim} rep needs {need / 2 ** 30:.1f} GiB for its "
                         f"result and buffers, over the {_CLOSURE_BYTES >> 30} GiB budget")
    actions = {letter: _letter_action(dim, *factor) for letter, factor in factors.items()}
    steps = [actions[letter] for letter in word.letters]
    out = np.empty((dim, dim), dtype=complex)
    edges = [dim * k // count for k in range(count + 1)]
    panels = list(zip(edges, edges[1:]))
    # every letter writes into preallocated arrays: at dim 243 a fresh
    # array per step can cost more in page faults than the arithmetic
    buffers = np.empty((workers, 3, dim * width), dtype=complex)
    failures = []

    def work(k):
        try:
            _run_panels(steps, out, panels[k::workers], buffers[k])
        except BaseException as exc:  # re-raised in the calling thread
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return out


# the budget for the three complex buffers of one panel, 48 * dim * width
# bytes: three quarters of the 2 MiB private L2 per core of the 2-vCPU x86
# box it was measured on (numpy 2.4).  Three 400-letter words took, as one
# array and then on two threads in panels under budgets of 1, 1.5 and
# 2 MiB, 0.40-0.45, 0.25-0.28, 0.20-0.22 and 0.21 s on the dim-243 comb-12
# rep, and 4.28, 1.77-2.04, 1.64-1.91 and 1.89 s on the dim-729 comb-14 rep
_PANEL_BYTES = 3 << 19


def _workers():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _run_panels(steps, out, panels, buffers):
    """Apply ``steps`` to each (lo, hi) panel of columns of t = I, and write
    the panel's rows lo:hi of out = t^T; ``buffers`` holds three flat
    arrays, each at least dim * (hi - lo) long."""
    dim = len(out)
    for lo, hi in panels:
        held, new, scratch = (b[:dim * (hi - lo)].reshape(dim, hi - lo) for b in buffers)
        held.fill(0)
        np.fill_diagonal(held[lo:hi], 1)
        for step in steps:
            step(held, new, scratch)
            held, new = new, held
        out[lo:hi] = held.T


def _check_strands(rep, word):
    if word.n_strands != rep.n_strands:
        raise ValueError(f"word is on {word.n_strands} strands, rep on {rep.n_strands}")


def _letter_factor(rep, letter):
    """The nonzeros (rows, cols, values) of the letter's factor s (sigma_i,
    or sigma_i^dagger for -i), and whether s is applied by a dense matmul;
    see :func:`eval_word`."""
    dim = rep.dim
    rows, cols, values = rep.nonzeros[abs(letter) - 1]
    if letter < 0:  # the nonzeros of s = sigma_i^dagger
        rows, cols, values = cols, rows, values.conj()
    passes = int(np.bincount(cols[rows != cols], minlength=dim).max(initial=0))
    return (rows, cols, values), 4 * passes * passes > dim - 32


def _letter_action(dim, nonzeros, dense):
    """A function (t, out, scratch) writing (t^T s)^T into ``out`` for a
    factor s on dim x dim, given as :func:`_letter_factor` returns it."""
    rows, cols, values = nonzeros
    if dense:
        factor = _dense(dim, (cols, rows, values))  # s^T, as it multiplies t
        return lambda t, out, scratch: np.matmul(factor, t, out=out)
    off = rows != cols
    diag = np.zeros((dim, 1), dtype=complex)
    diag[cols[~off], 0] = values[~off]
    order = np.argsort(cols[off], kind="stable")
    rows, cols, values = rows[off][order], cols[off][order], values[off][order]
    # pass j adds weights[j, c] * t[index[j, c]] to row c, for the j-th
    # off-diagonal nonzero of column c; a column with fewer nonzeros pads
    # with weight 0 on its own row
    slot = np.arange(len(cols)) - np.searchsorted(cols, cols)
    passes = int(slot.max(initial=-1)) + 1
    index = np.tile(np.arange(dim), (passes, 1))
    index[slot, cols] = rows
    weights = np.zeros((passes, dim, 1), dtype=complex)
    weights[slot, cols, 0] = values

    def act(t, out, scratch):
        np.multiply(diag, t, out=out)
        for rows_of_t, weight in zip(index, weights):
            # mode="clip" (the indices are in range anyway) lets take write
            # straight into ``scratch``; the default mode buffers it
            np.take(t, rows_of_t, axis=0, out=scratch, mode="clip")
            np.multiply(scratch, weight, out=scratch)
            np.add(out, scratch, out=out)
    return act


@dataclass
class VerifyResult:
    passed: bool
    phase: complex
    residual: float
    leakage: float


def verify_identity(rep, word, target, subspace=None):
    """Check a braid word against a target gate up to a global phase: it
    passes when the residual (and the leakage) is below 1e-8.

    With ``subspace`` (an isometry E of shape dim x k) the comparison is
    E^dag U E against the k x k target, and the leakage norm
    max|(I - E E^dag) U E| is reported as well.  A ``subspace`` whose
    columns are not orthonormal to 1e-9 raises ``ValueError``.
    """
    _check_strands(rep, word)
    target = np.asarray(target, dtype=complex)
    if subspace is not None:
        e = np.asarray(subspace, dtype=complex)
        if e.shape[0] != rep.dim or e.shape[1] != target.shape[0]:
            raise ValueError(f"subspace/target dimensions do not match the rep: subspace "
                             f"{_size(e)}, target {_size(target)}, rep dim {rep.dim}")
        residual = abs(e.conj().T @ e - np.eye(e.shape[1])).max(initial=0.0)
        if not residual <= 1e-9:
            raise ValueError(f"subspace columns are not orthonormal "
                             f"(|E^dagger E - 1| = {residual:.3e})")
    elif target.shape[0] != rep.dim:
        raise ValueError(f"target dimension does not match the rep: target "
                         f"{_size(target)}, rep dim {rep.dim}")
    u = eval_word(rep, word)
    if subspace is not None:
        ue = u @ e
        restricted = e.conj().T @ ue
        leakage = abs(ue - e @ restricted).max()
    else:
        restricted = u
        leakage = 0.0
    residual, phase = phase_distance(restricted, target)
    return VerifyResult(residual < 1e-8 and leakage < 1e-8, phase, residual, leakage)


def _size(matrix):
    return " x ".join(map(str, matrix.shape))


# ---------------------------------------------------------------------------
# finite group closure


def phase_canonical(u):
    """Rotate the global phase so the :func:`gates._anchor` entry becomes
    positive real; fixed point of phase multiplication.  Acts slice by
    slice on a (..., d, d) stack."""
    entry = u[_anchor(u)]
    return u * (_modulus(entry) / entry)[..., None, None]


def det_normalize(u):
    """Rescale to determinant one using the principal root of det."""
    u = np.asarray(u, dtype=complex)
    det = np.linalg.det(u)
    return u / det ** (1.0 / u.shape[0])


@dataclass
class ClosureResult:
    order: object  # int, or None when the cap was exceeded
    cap_exceeded: bool
    center_size: object
    element_orders: object  # {element order: count}, or None

    def histogram_text(self):
        if self.element_orders is None:
            return ""
        return " ".join(f"{k}:{v}" for k, v in sorted(self.element_orders.items()))


def _keys(stack):
    """One bytes key per matrix of an (n, d, d) stack: the real and
    imaginary parts of its entries rounded to multiples of 1e-6.  The
    entries of a unitary are at most 1 in modulus, so the multiples fit
    int32."""
    q = np.round(stack.view(np.float64) / 1e-6).astype(np.int32).reshape(len(stack), -1)
    return q.view(np.dtype((np.void, q.itemsize * q.shape[1]))).ravel()


def _times(stack, g):
    """``stack[i] @ g`` for every i, as one matrix product."""
    return (stack.reshape(-1, g.shape[0]) @ g).reshape(stack.shape)


def group_closure(generators, projective=False, cap=100000, det_lift=True):
    """Breadth-first closure of a set of unitaries under multiplication.

    ``projective=True`` identifies matrices up to a global phase;
    otherwise each generator is first rescaled to determinant one (the
    resulting order then depends on that lift, which is the convention
    reported here).  Pass ``det_lift=False`` to close the literal
    matrices instead, e.g. for permutation gates of determinant -1, where
    the principal-root rescale would introduce spurious phases.  Returns
    order, center size, and a histogram of element orders; if more than
    ``cap`` distinct elements appear, the search stops with
    ``cap_exceeded`` set and no order claim.  ``cap`` must be at least 1,
    and the most memory a search up to it may hold
    (:func:`_closure_bytes`) must fit ``_CLOSURE_BYTES``; otherwise
    ``ValueError`` names the largest cap that fits, before anything is
    allocated.  A generator that is not a finite square unitary matrix to
    1e-9 raises ``ValueError``.

    :func:`_bfs` finds the elements and keeps their Cayley table and BFS
    tree.  The center and the element orders are read off the table by
    integer walks (:func:`_left_table`, :func:`_table_orders`), and every
    answer is then certified on the matrices by :func:`_certify`, to 1e-8
    entrywise (up to phase when projective).  A disagreement, or an
    element order past the group order, raises ``RuntimeError``.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1 (got {cap})")
    gens = [_unitary(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    dim = gens[0].shape[0]
    if dim == 0 or any(g.shape != (dim, dim) for g in gens):
        raise ValueError("generators must share one nonzero dimension")
    need = _closure_bytes(cap, len(gens), dim)
    if need > _CLOSURE_BYTES:
        fits = _largest_cap(len(gens), dim)
        raise ValueError(
            f"a closure of {len(gens)} generators of size {dim} x {dim} up to cap {cap} may "
            f"need {need / 2 ** 30:.1f} GiB, over the {_CLOSURE_BYTES >> 30} GiB budget; "
            + (f"the largest cap that fits is {fits}" if fits else "no cap fits"))
    if not projective and det_lift:
        gens = [det_normalize(g) for g in gens]
    gens = np.array(gens)
    found = _bfs(gens, phase_canonical if projective else (lambda u: u), cap)
    if found is None:
        return ClosureResult(None, True, None, None)

    table = found.table
    if ((table < 0) | (table >= len(table))).any():
        raise RuntimeError("closure table points past the elements it covers")
    left = _left_table(found)
    orders, inverses = _table_orders(left, found, len(found.members))
    if len(found.members) != len(table):
        raise RuntimeError(f"closure table covers {len(table)} elements, "
                           f"the search found {len(found.members)}")
    disagree = table != left[:, :-1]  # x g against g x, by slot
    central = ~disagree.any(axis=1)
    if projective:
        def same(a, b):
            return phase_distance(a, b)[0] < 1e-8
    else:
        def same(a, b):
            return abs(a - b).max(axis=(-2, -1)) < 1e-8
    _certify(found.members, gens, same, central, disagree.argmax(axis=1), inverses)
    values, counts = np.unique(orders, return_counts=True)
    return ClosureResult(len(table), False, int(central.sum()),
                         dict(zip(values.tolist(), counts.tolist())))


# matrices per stacked step of a closure (a BFS batch's products, a block of
# certificates): at most _CHUNK, and at most _CHUNK_BYTES of them, so each
# temporary stays near 200 kB at every d (512 matrices at d <= 5), which
# keeps the peak memory of a 3000-element closure where the
# element-by-element search had it
_CHUNK = 512
_CHUNK_BYTES = _CHUNK * 16 * 5 * 5

# the most memory a closure may hold at its cap (see _closure_bytes)
_CLOSURE_BYTES = 1 << 30


def _chunk(dim):
    """Matrices of side ``dim`` per stacked step."""
    return max(1, min(_CHUNK, _CHUNK_BYTES // (16 * dim * dim)))


def _batch_rows(n_gens, dim):
    """Elements per BFS batch: their products with every generator make
    about one stacked step."""
    return max(1, _chunk(dim) // n_gens)


def _store_slots(cap, n_gens, dim):
    """The most elements :func:`_bfs`'s store holds: the search stops once
    more than ``cap`` are found, and the batch that passes the cap, at most
    ``cap`` rows, adds at most one new element per product."""
    return cap + n_gens * min(_batch_rows(n_gens, dim), cap)


def _closure_bytes(cap, n_gens, dim):
    """The most bytes a closure up to ``cap`` holds at once.  Each store
    slot takes its matrix, 16 dim^2 bytes, and at most 16 n_gens + 64 bytes
    of integer tables, tree and walk arrays; while the store grows by
    doubling, the old copy and the new one, each at most
    :func:`_store_slots` long, are held together."""
    return 2 * _store_slots(cap, n_gens, dim) * (16 * dim * dim + 16 * n_gens + 64)


def _largest_cap(n_gens, dim):
    """The largest cap whose :func:`_closure_bytes` fits ``_CLOSURE_BYTES``,
    or 0 if none does; the bytes grow with the cap, so bisect."""
    lo, hi = 0, _CLOSURE_BYTES // (32 * dim * dim)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _closure_bytes(mid, n_gens, dim) <= _CLOSURE_BYTES:
            lo = mid
        else:
            hi = mid - 1
    return lo


class _Found(NamedTuple):
    """What :func:`_bfs` finds, slot by slot in discovery order; slot 0 is
    the identity and the root of the BFS tree."""

    members: np.ndarray  # (n, d, d): the elements
    table: np.ndarray  # (n, |gens|): table[x, g] is the slot of canon(members[x] @ gens[g])
    parent: np.ndarray  # (n,): members[x] is canon(members[parent[x]] @ gens[letter[x]])
    letter: np.ndarray  # (n,): the root is its own parent, with the letter |gens|
    depth: np.ndarray  # (n,): the BFS level, nondecreasing with the slot


def _bfs(gens, canon, cap):
    """The closure of ``gens`` as a :class:`_Found`, or None once it has
    more than ``cap`` elements.

    The BFS queue is the element stack itself, taken in batches of
    :func:`_batch_rows` elements; see the module docstring.  Each new
    element records its parent, generator and depth as it is stored, and
    each batch fills its rows of the Cayley table from the slots its
    products were looked up under.  Every product whose key is already
    known, from an earlier batch or an earlier slot of its own, must lie
    within 1e-4 of the element stored under it, else the grid has merged
    distinct elements and ``RuntimeError`` is raised.  When the cap is
    passed, only the products before element cap + 1 are checked, as a
    product-by-product search would have stopped there.
    """
    n_gens, dim = gens.shape[:2]
    most = _store_slots(cap, n_gens, dim)
    size = min(most, _chunk(dim))  # a small closure never grows
    store = np.empty((size, dim, dim), dtype=complex)  # elements are store[:count]
    table = np.empty((size, n_gens), dtype=np.intp)
    parent, letter, depth = np.zeros((3, size), dtype=np.intp)
    store[:1], letter[0] = canon(np.eye(dim, dtype=complex)[None]), n_gens
    count, head, rows = 1, 0, _batch_rows(n_gens, dim)
    known = {_keys(store[:1])[0].tobytes(): 0}
    while head < count:
        lo = head
        batch = store[lo:min(count, lo + rows)]
        head += len(batch)
        products = np.stack([_times(batch, g) for g in gens], axis=1)
        products = canon(products.reshape(-1, dim, dim))
        # one dictionary lookup per product, new keys numbered in order of
        # appearance; on a 2-vCPU x86 box (numpy 2.4) this took 1 us for 3
        # qupit products and 93 us for 510, where deduplicating the keys
        # with np.unique first took 11 us and 188 us
        slots, fresh = [], []
        for index, key in enumerate(_keys(products).tolist()):
            slot = known.get(key)
            if slot is None:
                slot = known[key] = count + len(fresh)
                fresh.append(index)
            slots.append(slot)
        slots, fresh = np.array(slots), np.array(fresh, dtype=np.intp)
        if count + len(fresh) > len(store):  # grow by doubling, up to the most it can need
            size = min(count + max(count, len(fresh)), most)
            store, table, parent, letter, depth = (
                _grown(a, count, size) for a in (store, table, parent, letter, depth))
        new = slice(count, count + len(fresh))
        store[new] = products[fresh]
        parent[new], letter[new] = np.divmod(fresh, n_gens)
        parent[new] += lo
        depth[new] = depth[parent[new]] + 1
        count += len(fresh)
        stop = len(products)
        if count > cap:  # the product at ``stop`` is element cap + 1
            stop = fresh[cap - count + len(fresh)]
        if stop and abs(store[slots[:stop]] - products[:stop]).max() > 1e-4:
            raise RuntimeError("hash grid collision between distinct elements")
        if count > cap:
            return None
        table[lo:head] = slots.reshape(-1, n_gens)
    return _Found(store[:count], table[:count], parent[:count], letter[:count], depth[:count])


def _grown(array, count, size):
    """A ``size``-long copy of ``array``'s first ``count`` rows, the rest
    uninitialized."""
    out = np.empty((size, *array.shape[1:]), dtype=array.dtype)
    out[:count] = array[:count]
    return out


def _left_table(found):
    """left[x, g], the slot of gens[g] members[x], for every slot and
    generator, and a last column that maps each slot to itself.  Walked
    down the BFS tree a level at a time: the root's row is the table's,
    and g x is (g parent(x)) letter(x)."""
    table, parent, letter = found.table, found.parent, found.letter
    n, n_gens = table.shape
    left = np.empty((n, n_gens + 1), dtype=np.intp)
    left[:, n_gens] = np.arange(n)
    left[:1, :n_gens] = table[:1]
    edges = [*(np.flatnonzero(np.diff(found.depth)) + 1).tolist(), n]
    for lo, hi in zip(edges, edges[1:]):
        left[lo:hi, :n_gens] = table[left[parent[lo:hi], :n_gens], letter[lo:hi, None]]
    return left


def _table_orders(left, found, bound):
    """The order o of each slot's element x, and the slot of x^(o-1).

    x^k = x x^(k-1) is walked from z = x^(k-1) by z -> left[z, letter(c)]
    for c = x, parent(x), ... up to the root (whose letter is the
    identity column), all live elements at once; x leaves the walk when
    its power reaches slot 0.  An order past ``bound``, the group order,
    raises ``RuntimeError``.  Powers are held as slot times the row width
    of ``left``, so a step is three gathers and one add."""
    parent, letter, depth = found.parent, found.letter, found.depth
    width = left.shape[1]
    rows = left.ravel() * width  # rows[z * width + g] is (g z) * width
    orders = np.zeros(len(left), dtype=np.int64)
    inverses = np.zeros(len(left), dtype=np.intp)
    live = np.arange(len(left))
    power, previous, order = live * width, inverses, 1
    while True:
        done = power == 0
        orders[live[done]] = order
        inverses[live[done]] = previous[done] // width
        live, power = live[~done], power[~done]
        if not len(live):
            return orders, inverses
        order += 1
        if order > bound:
            raise RuntimeError("element order exceeds group order; inconsistent closure")
        previous, cursor = power, live
        for _ in range(depth[live].max()):
            power = rows[power + letter[cursor]]
            cursor = parent[cursor]


def _certify(members, gens, same, central, named, inverses):
    """Check the walks' answers on the matrices, ``same`` being the 1e-8
    comparison: x^(o-1) x is the identity for every x (the slot of x^(o-1)
    is ``inverses[x]``); no element but slot 0 is the identity; every
    ``central`` element commutes with every generator, and every other
    element x fails to commute with gens[named[x]].  The elements are taken
    in blocks of half a :func:`_chunk`; the products x g and g x of the
    (element, generator) pairs a block checks come from two stacked matrix
    products, and all its pairs of matrices go through one call of
    ``same``.  A disagreement raises ``RuntimeError``."""
    n_gens, dim = gens.shape[:2]
    eye = np.eye(dim, dtype=complex)
    step = max(1, _chunk(dim) // 2)
    for lo in range(0, len(members), step):
        block, slots = members[lo:lo + step], np.arange(lo, min(lo + step, len(members)))
        # only a matrix whose off-diagonal entries are all within 1e-8 of 0
        # can lie within 1e-8 of a multiple of the identity
        near = block[(abs(block - block * eye).max(axis=(-2, -1)) < 1e-8) & (slots > 0)]
        # (x, g) pairs: every generator for a central x, the named one otherwise
        pick = central[slots, None] | (named[slots, None] == np.arange(n_gens))
        x, g = np.nonzero(pick)
        b, m = len(block), len(block) + len(near)
        lhs = np.empty((m + len(x), dim, dim), dtype=complex)
        rhs = np.empty_like(lhs)
        np.matmul(members[inverses[slots]], block, out=lhs[:b])
        lhs[b:m], rhs[:m] = near, eye
        np.matmul(block[x], gens[g], out=lhs[m:])
        np.matmul(gens[g], block[x], out=rhs[m:])
        want = np.zeros(len(lhs), dtype=bool)
        want[:b], want[m:] = True, central[slots[x]]
        wrong = np.flatnonzero(same(lhs, rhs) != want)
        if len(wrong):
            raise RuntimeError(
                "an element to the power of its order is not the identity" if wrong[0] < b
                else "an element other than the first is the identity" if wrong[0] < m
                else "the Cayley table and the matrices disagree on the center")
