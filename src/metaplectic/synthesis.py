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
matrix product per generator, and are phase-canonicalized, keyed on a
1e-6 grid and deduplicated by one ``np.unique`` as one stack, so that
only distinct keys are looked up in the dictionary of known elements.
Elements are found in the same order as by a product-by-product search
(queue first, then generator), so the cap is met at the same product.
The center and the element orders are computed on stacks of elements
too, through the same stack-aware :func:`gates.phase_distance` that
``verify_identity`` uses.
"""

from __future__ import annotations

import operator
import os
import threading
from dataclasses import dataclass

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


_NAMED = {"su2_4": _su2_4_words()}


def named_words(category_name):
    """Preregistered words (p, q, Hword, CZword, s1, s2, s3) per category.

    For su2_4, p, q and Hword are 4-strand words on the qutrit model.
    s1, s2, s3 and CZword are 8-strand words on the 27-dim block-8 rep
    (two pair trees of four 1-anyons, total 2).  Only their restriction to
    its 9-dim block subspace (see :func:`metaplectic.trees.block_embedding`)
    is a gate.  ``verify suite --category su2_4`` checks CZword there.
    ``verify identity`` compares the whole matrix with the target and exits
    64 for these words.
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
    """
    if word.n_strands != rep.n_strands:
        raise ValueError(f"word is on {word.n_strands} strands, rep on {rep.n_strands}")
    dim = rep.dim
    actions = {letter: _letter_action(rep, letter) for letter in set(word.letters)}
    steps = [actions[letter][0] for letter in word.letters]
    out = np.empty((dim, dim), dtype=complex)
    if 48 * dim * dim <= _PANEL_BYTES or any(dense for _, dense in actions.values()):
        workers, count = 1, 1
    else:
        workers = _workers()
        count = -(-48 * dim * dim // _PANEL_BYTES)
        count += -count % workers
    edges = [dim * k // count for k in range(count + 1)]
    panels = list(zip(edges, edges[1:]))
    # every letter writes into preallocated arrays: at dim 243 a fresh
    # array per step can cost more in page faults than the arithmetic
    buffers = np.empty((workers, 3, dim * -(-dim // count)), dtype=complex)
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


def _letter_action(rep, letter):
    """A function (t, out, scratch) writing (t^T s)^T into ``out`` for the
    letter's factor s, and whether it is a dense matmul; see
    :func:`eval_word`."""
    dim = rep.dim
    rows, cols, values = rep.nonzeros[abs(letter) - 1]
    if letter < 0:  # the nonzeros of s = sigma_i^dagger
        rows, cols, values = cols, rows, values.conj()
    off = rows != cols
    passes = int(np.bincount(cols[off], minlength=dim).max(initial=0))
    if 4 * passes * passes > dim - 32:
        factor = _dense(dim, (cols, rows, values))  # s^T, as it multiplies t
        return (lambda t, out, scratch: np.matmul(factor, t, out=out)), True
    diag = np.zeros((dim, 1), dtype=complex)
    diag[cols[~off], 0] = values[~off]
    order = np.argsort(cols[off], kind="stable")
    rows, cols, values = rows[off][order], cols[off][order], values[off][order]
    # pass j adds weights[j, c] * t[index[j, c]] to row c, for the j-th
    # off-diagonal nonzero of column c; a column with fewer nonzeros pads
    # with weight 0 on its own row
    slot = np.arange(len(cols)) - np.searchsorted(cols, cols)
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
    return act, False


@dataclass
class VerifyResult:
    passed: bool
    phase: complex
    residual: float
    leakage: float


def verify_identity(rep, word, target, subspace=None, tol=1e-8):
    """Check a braid word against a target gate up to a global phase.

    With ``subspace`` (an isometry E of shape dim x k) the comparison is
    E^dag U E against the k x k target, and the leakage norm
    max|(I - E E^dag) U E| is reported as well.
    """
    u = eval_word(rep, word)
    target = np.asarray(target, dtype=complex)
    if subspace is not None:
        e = np.asarray(subspace, dtype=complex)
        if e.shape[0] != rep.dim or e.shape[1] != target.shape[0]:
            raise ValueError(f"subspace/target dimensions do not match the rep: subspace "
                             f"{_size(e)}, target {_size(target)}, rep dim {rep.dim}")
        ue = u @ e
        restricted = e.conj().T @ ue
        leakage = abs(ue - e @ restricted).max()
    else:
        if target.shape[0] != rep.dim:
            raise ValueError(f"target dimension does not match the rep: target "
                             f"{_size(target)}, rep dim {rep.dim}")
        restricted = u
        leakage = 0.0
    residual, phase = phase_distance(restricted, target)
    return VerifyResult(residual < tol and leakage < tol, phase, residual, leakage)


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


def _keys(stack, grid=1e-6):
    """One bytes key per matrix of an (n, d, d) stack: the real and
    imaginary parts of its entries rounded to multiples of ``grid``.  The
    entries of a unitary are at most 1 in modulus, so the multiples fit
    int32."""
    q = np.round(stack.view(np.float64) / grid).astype(np.int32).reshape(len(stack), -1)
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
    ``cap_exceeded`` set and no order claim.  ``cap`` must be at least 1.
    A generator that is not a finite square unitary matrix to 1e-9 raises
    ``ValueError``.

    :func:`_bfs` finds the elements.  The center and the element orders
    are then computed on stacked blocks of elements, comparing matrices to
    1e-8 entrywise (up to phase when projective); an element whose order
    would exceed the group order raises ``RuntimeError``.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1 (got {cap})")
    gens = [_unitary(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    dim = gens[0].shape[0]
    if dim == 0 or any(g.shape != (dim, dim) for g in gens):
        raise ValueError("generators must share one nonzero dimension")
    if not projective and det_lift:
        gens = [det_normalize(g) for g in gens]
    gens = np.array(gens)
    members = _bfs(gens, phase_canonical if projective else (lambda u: u), cap)
    if members is None:
        return ClosureResult(None, True, None, None)

    if projective:
        def same(a, b):
            return phase_distance(a, b)[0] < 1e-8
    else:
        def same(a, b):
            return abs(a - b).max(axis=(-2, -1)) < 1e-8
    center, orders = 0, []
    for block in np.split(members, range(_CHUNK, len(members), _CHUNK)):
        central = np.ones(len(block), dtype=bool)
        for g in gens:  # g @ block[i] is (block[i]^T @ g^T)^T
            central &= same(_times(block, g), _times(block.swapaxes(1, 2), g.T).swapaxes(1, 2))
        center += int(central.sum())
        orders.append(_element_orders(block, same, len(members)))
    values, counts = np.unique(np.concatenate(orders), return_counts=True)
    return ClosureResult(len(members), False, center, dict(zip(values.tolist(), counts.tolist())))


# matrices per stacked step of a closure; at d = 5 each temporary stays near
# 200 kB, which keeps the peak memory of a 3000-element closure where the
# element-by-element search had it
_CHUNK = 512


def _bfs(gens, canon, cap):
    """The closure of ``gens`` as an (n, d, d) stack in discovery order,
    or None once it has more than ``cap`` elements.

    The BFS queue is the element stack itself, taken in batches of
    ``_CHUNK // len(gens)`` elements; see the module docstring.  Every
    product whose key is already known, from an earlier batch or an
    earlier slot of its own, must lie within 1e-4 of the element stored
    under it, else the grid has merged distinct elements and
    ``RuntimeError`` is raised.  When the cap is passed, only the products
    before element cap + 1 are checked, as a product-by-product search
    would have stopped there.
    """
    dim = gens.shape[-1]
    store = canon(np.eye(dim, dtype=complex)[None])  # elements are store[:count]
    count, head, size = 1, 0, max(1, _CHUNK // len(gens))
    known = {_keys(store)[0].tobytes(): 0}
    while head < count:
        batch = store[head:min(count, head + size)]
        head += len(batch)
        products = np.stack([_times(batch, g) for g in gens], axis=1)
        products = canon(products.reshape(-1, dim, dim))
        keys, first, inverse = np.unique(_keys(products), return_index=True,
                                         return_inverse=True)
        slots = np.array([known.get(key, -1) for key in keys.tolist()])
        fresh = np.flatnonzero(slots < 0)
        fresh = fresh[np.argsort(first[fresh])]  # new keys, in order of appearance
        slots[fresh] = count + np.arange(len(fresh))
        if count + len(fresh) > len(store):  # grow by doubling
            store = np.concatenate([store[:count], np.empty_like(store, shape=(
                max(count, len(fresh)), dim, dim))])
        store[count:count + len(fresh)] = products[first[fresh]]
        count += len(fresh)
        stop = len(products)
        if count > cap:  # the product at ``stop`` is element cap + 1
            stop = first[fresh[cap - count + len(fresh)]]
        if stop and abs(store[slots[inverse[:stop]]] - products[:stop]).max() > 1e-4:
            raise RuntimeError("hash grid collision between distinct elements")
        if count > cap:
            return None
        known.update(zip(keys[fresh].tolist(), slots[fresh].tolist()))
    return store[:count]


def _element_orders(block, same, bound):
    """The order of each element of ``block``: all are raised to successive
    powers at once, and an element leaves the stack when its power is
    ``same`` as the identity.  An order past ``bound``, the group order,
    raises ``RuntimeError``."""
    eye = np.eye(block.shape[-1], dtype=complex)
    orders = np.zeros(len(block), dtype=np.int64)
    live, power, order = np.arange(len(block)), block, 1
    while True:
        done = same(power, np.broadcast_to(eye, power.shape))
        orders[live[done]] = order
        live, power = live[~done], power[~done]
        if not len(live):
            return orders
        power = power @ block[live]
        order += 1
        if order > bound:
            raise RuntimeError("element order exceeds group order; inconsistent closure")
