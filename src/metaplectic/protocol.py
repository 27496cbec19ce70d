"""State-vector simulation of the measurement-assisted sign-flip protocol.

A :class:`ProtocolState` is a register of qudits with a seeded RNG.  It
supports unitary application, standard-basis measurement of one qudit,
and coherent projection of one qudit onto a subspace (the unmeasured
branch keeps its relative phases).  All three take one path, a
``np.tensordot`` on the acted-on qudits' axes; the Flip functions below
build no register per call but are closed forms making its draws.

The Flip construction works on qutrits: an ancilla
|psi> = (|0> - |1> + |2>)/sqrt(3) is prepared measurement-assisted, and
each round applies SUM to (data, ancilla) and measures the ancilla.  The
three outcomes flip the sign of one data amplitude each, with probability
exactly 1/3 per outcome, so the accumulated sign patterns walk the Klein
four-group {identity, Flip[0], Flip[1], Flip[2]} modulo a global sign.
The walk absorbs at Flip[2] (up to global sign) with probability
p_n = 1 - (2/3)^n after n rounds; :func:`exact_flip_curve` reproduces
that closed form from the quotient chain in exact rational arithmetic and
:func:`estimate_flip_success` estimates it by seeded Monte Carlo.  Every
trial of that estimate has the same amplitude magnitudes, exactly: the
start state and every ancilla entry are +-1/sqrt(3), and IEEE multiply,
square and divide are sign-symmetric.  So the estimate keeps one shared
magnitude column per round and a 2-bit sign class per trial.

A single Flip round (:func:`run_flip_round`) keeps numpy only where numpy
sets the bits: the complex product, ``np.abs`` of complex amplitudes, the
BLAS dots in ``_norm`` and the complex / real divides.  Its squares, sums
and Born draw run on Python floats, which is exact: IEEE products are
correctly rounded, and numpy sums three float64 terms left to right.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gates import _unitary, hadamard, sum_gate

__all__ = [
    "ProtocolState",
    "prepare_flip_ancilla",
    "run_flip_round",
    "FlipCurveRow",
    "exact_flip_curve",
    "exact_flip_probability",
    "estimate_flip_success",
    "FLIP_PATTERNS",
]


class ProtocolState:
    """Amplitude vector over (C^d)^{x m} with a deterministic RNG.

    ``num_qudits`` m >= 1 and ``d`` >= 2 are integers.  The register starts
    in the standard basis state ``initial``, m digits in range(d), which
    defaults to |0...0>.  The RNG is ``rng``, or a new Generator seeded
    with ``seed``; passing both raises ``ValueError``.  Every operation
    applies its matrix through :meth:`_acted`, the one path.
    """

    def __init__(self, num_qudits, d, rng=None, seed=None, initial=None):
        if rng is not None and seed is not None:
            raise ValueError("pass rng or seed, not both")
        self.d = _dimension(d)
        self.m = operator.index(num_qudits)
        if self.m < 1:
            raise ValueError(f"a register needs at least one qudit, got {self.m}")
        if initial is None:
            initial = (0,) * self.m
        else:
            initial = tuple(map(operator.index, initial))
            if len(initial) != self.m or not all(0 <= k < self.d for k in initial):
                raise ValueError(f"initial state {initial} is not {self.m} digits in "
                                 f"range({self.d})")
        self.amps = np.zeros((self.d,) * self.m, dtype=complex)
        self.amps[initial] = 1.0
        if rng is None:
            rng = np.random.default_rng(seed)
        self.rng = rng

    @classmethod
    def from_vector(cls, vec, d, rng=None, seed=None):
        d = _dimension(d)
        vec = np.asarray(vec, dtype=complex)
        m, size = 0, 1
        while size < vec.size:
            m, size = m + 1, size * d
        if not m or size != vec.size:
            raise ValueError(f"vector of size {vec.size} is not a register of d={d} qudits")
        norm = np.linalg.norm(vec)
        if not 0 < norm < np.inf:
            raise ValueError(f"state vector needs a finite, nonzero norm (got {norm})")
        state = cls(m, d, rng=rng, seed=seed)
        state.amps = (vec / norm).reshape((d,) * m)
        return state

    def vector(self):
        return self.amps.reshape(-1).copy()

    def norm(self):
        return float(np.linalg.norm(self.amps))

    def apply(self, gate, at):
        """Apply a unitary on the qudits listed in ``at`` (control first).

        A gate that is not a unitary matrix to 1e-9 raises ``ValueError``.
        """
        gate = _unitary(gate)
        at = tuple(map(self._qudit, at))
        if len(set(at)) != len(at):
            raise IndexError(f"bad qudit indices {at} for register of {self.m}")
        if gate.shape != (self.d ** len(at),) * 2:
            raise ValueError(f"gate shape {gate.shape} does not act on {len(at)} qudits")
        self.amps = self._acted(gate, at)
        return self

    def _acted(self, matrix, at):
        """The amplitudes with a d^k x d^k ``matrix`` applied to the k
        qudits ``at``, in that order; the register is not changed."""
        k = len(at)
        order = at + tuple(ax for ax in range(self.m) if ax not in at)
        moved = np.transpose(self.amps, order)
        tensor = matrix.reshape((self.d,) * (2 * k))
        out = np.tensordot(tensor, moved, axes=(tuple(range(k, 2 * k)), tuple(range(k))))
        return np.transpose(out, np.argsort(order))

    def _qudit(self, qudit):
        """``qudit`` as an int in range(m); a bool, a non-integer or an
        index out of range raises ``IndexError``."""
        try:
            index = None if isinstance(qudit, (bool, np.bool_)) else operator.index(qudit)
        except TypeError:
            index = None
        if index is None or not 0 <= index < self.m:
            raise IndexError(f"bad qudit index {qudit!r} for register of {self.m}")
        return index

    def probabilities(self, qudit):
        qudit = self._qudit(qudit)
        axes = tuple(ax for ax in range(self.m) if ax != qudit)
        return np.abs(self.amps) ** 2 if not axes else (np.abs(self.amps) ** 2).sum(axis=axes)

    def measure_standard(self, qudit):
        """Born-rule measurement of one qudit; collapses and renormalizes.

        The outcome is drawn as ``Generator.choice(d, p=probs)`` draws it:
        one ``rng.random()`` against the normalised cumulative sum.
        """
        probs = self.probabilities(qudit)
        outcome = _born_outcome(probs.tolist(), float(probs.sum()), self.rng)
        keep = np.zeros((self.d, self.d))
        keep[outcome, outcome] = 1.0
        self._collapse(qudit, keep)
        return outcome, float(probs[outcome])

    def project(self, qudit, vectors):
        """Coherent projection of one qudit onto span(vectors).

        ``vectors`` is a list of orthonormal d-vectors, made into the
        projector pair on each call.  Returns ("in"/"out", probability of the
        sampled branch).  The complement branch stays coherent: only the
        projector is applied, through :meth:`_acted` like every operation.

        This is also the register-level reading of an anyonic total-charge
        measurement: measuring whether the first anyon pair of a
        fusion-tree qutrit is trivial projects onto span{|1>} (the |1 Y>
        basis vector) versus its complement, coherently.
        """
        qudit = self._qudit(qudit)
        inside, outside = _projector(vectors, self.d)
        projected = self._acted(inside, (qudit,))
        p_in = float((np.abs(projected) ** 2).sum())
        p_in = min(max(p_in, 0.0), 1.0)
        if self.rng.random() < p_in:
            self.amps = _renormalized(projected)
            return "in", p_in
        self._collapse(qudit, outside)
        return "out", 1.0 - p_in

    def _collapse(self, qudit, matrix):
        self.amps = _renormalized(self._acted(matrix, (qudit,)))


def _born_outcome(probs, total, rng):
    """Index drawn as ``Generator.choice(len(probs), p=probs / total)``
    draws it: one ``rng.random()`` against the normalised cumulative sum.
    ``probs`` is a list of Python floats and ``total`` their sum as the
    caller's numpy would form it (pairwise from 8 terms); the rest runs on
    Python floats in numpy's order, ``bisect_right`` for ``searchsorted``."""
    if not (all(0 <= p < math.inf for p in probs) and 0 < total < math.inf):
        raise ValueError(f"invalid outcome probabilities {probs}")
    cdf = list(itertools.accumulate(p / total for p in probs))
    last = cdf[-1]
    return bisect.bisect_right([c / last for c in cdf], rng.random())


def _norm(amps):
    """``np.linalg.norm(amps)`` of a complex array, bit for bit, without its
    dispatch: the same ``ravel(order="K")`` summation order."""
    flat = amps.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _renormalized(amps):
    norm = _norm(amps)
    if norm < 1e-12:
        raise RuntimeError("collapsed onto a zero-probability branch")
    return amps / norm


def _dimension(d):
    d = operator.index(d)
    if d < 2:
        raise ValueError(f"a qudit needs dimension d >= 2, got {d}")
    return d


def _projector(vectors, d):
    """The projectors (onto span(vectors), onto its orthogonal complement);
    the vectors must be orthonormal d-vectors."""
    columns = []
    for v in vectors:
        v = np.asarray(v, complex)
        norm = np.linalg.norm(v)
        if v.shape != (d,) or not 0 < norm < np.inf:
            raise ValueError(f"projection vectors must be finite, nonzero {d}-vectors")
        columns.append(v / norm)
    if not columns:
        raise ValueError("projection needs at least one vector")
    basis = np.array(columns).T
    overlap = basis.conj().T @ basis
    if not abs(overlap - np.eye(basis.shape[1])).max() <= 1e-9:
        raise ValueError("projection subspace vectors must be orthonormal")
    inside = basis @ basis.conj().T
    return inside, np.eye(d) - inside


# ---------------------------------------------------------------------------
# Flip construction

# ancilla-measurement outcome -> sign pattern applied to the data qutrit
FLIP_PATTERNS = {0: (1, 1, -1), 1: (-1, 1, 1), 2: (1, -1, 1)}

# after SUM on phi (x) psi, amplitude (i, j) is phi_i psi[_SHIFT[i, j]]
_SHIFT = (np.arange(3) - np.arange(3)[:, None]) % 3
_SUM_GATHER = 3 * np.arange(3)[:, None] + _SHIFT  # (i, _SHIFT[i, j]) in a flat 3 x 3


class _AlwaysIn:
    """An RNG stand-in whose draws land every projection on its "in" branch."""

    @staticmethod
    def random():
        return 0.0


def _flip_ancilla_branch():
    """The all-"in" branch of one preparation attempt, run on a register
    by its public ``apply`` and ``project``, the one path.

    Returns the chance of "in" at each of the three projections, clipped
    as :meth:`ProtocolState.project` clips it, and the ancilla the branch
    leaves.  Neither depends on the draws.
    """
    h3 = hadamard(3)
    state = ProtocolState(2, 3, rng=_AlwaysIn(), initial=(1, 2))
    state.apply(np.kron(h3, h3), (0, 1))
    chances = [state.project(q, np.eye(3)[:2])[1] for q in (0, 1)]  # onto span{|0>, |1>}
    state.apply(sum_gate(3), (0, 1))
    chances.append(state.project(0, [h3[:, 0]])[1])
    marginal = h3[:, 0].conj() @ state.amps
    ancilla = marginal / np.linalg.norm(marginal)
    ancilla.setflags(write=False)
    return tuple(chances), ancilla


_ANCILLA_CHANCES, _ANCILLA = _flip_ancilla_branch()


def prepare_flip_ancilla(rng):
    """Measurement-assisted preparation of (|0> - |1> + |2>)/sqrt(3).

    Starts from H|1> (x) H|2>, projects both qutrits onto span{|0>,|1>},
    applies SUM, and projects the first qutrit onto span{H|0>}; any failed
    projection restarts the preparation.  Returns (ancilla vector,
    attempts used); attempts are geometric with success chance 4/9 * 1/4.

    The branch on which every projection answers "in" fixes the states,
    so it runs once, at import, on a :class:`ProtocolState`
    (``_ANCILLA_CHANCES``, ``_ANCILLA``).  An attempt here is then one
    ``rng.random() < p_in`` per projection, stopping at the first "out":
    the same draws the register would make.  The ancilla returned is a
    fresh copy.
    """
    first, second, third = _ANCILLA_CHANCES
    attempts = 1
    while not (rng.random() < first and rng.random() < second and rng.random() < third):
        attempts += 1
    return _ANCILLA.copy(), attempts


def run_flip_round(phi, psi, rng):
    """One probabilistic sign-flip round on the data qutrit ``phi``.

    Applies SUM to (data, ancilla) and measures the ancilla; each outcome
    has probability exactly 1/3.  Returns (sign pattern applied,
    collapsed data state).  ``phi`` and ``psi`` must be 3-vectors, else
    ``ValueError``.  ``psi`` must be the Flip ancilla
    (|0> - |1> + |2>)/sqrt(3) up to a global phase, as
    :func:`prepare_flip_ancilla` returns it; the caller is trusted, since a
    check here would run on every round of every episode.  The global phase
    of ``psi`` carries over to the returned data state.

    No register is built: SUM on the normalised product state is one
    flat ``take`` by ``_SUM_GATHER``, and the measurement is the register's
    (:meth:`ProtocolState.measure_standard`) on that 3 x 3 array, with the
    same probabilities, the same single draw and the same two
    normalisations, so draws and states are those of the register, down
    to the sign of an exact zero.

    Numpy stays where its bits differ from plain Python's: the complex
    product, ``np.abs`` (its complex absolute value differs from ``abs``
    in the last bit on about a third of inputs), the BLAS dots in
    :func:`_norm` and the complex / real divides.  The probabilities are
    Python floats from ``np.abs(amps).tolist()``: squares are correctly
    rounded either way, and numpy sums three float64 terms left to right,
    both along axis 0 of a 3 x 3 and in a 1-D ``sum``, so the column sums
    and the total are numpy's exactly.
    """
    phi = np.asarray(phi, complex)
    if phi.shape != (3,) or np.shape(psi) != (3,):
        raise ValueError(f"a Flip round needs 3-vectors, got data of shape {phi.shape} "
                         f"and ancilla of shape {np.shape(psi)}")
    joint = phi[:, None] * psi  # np.outer(phi, psi), without its wrapper
    norm = _norm(joint)
    if not 0 < norm < np.inf:
        raise ValueError(f"state vector needs a finite, nonzero norm (got {norm})")
    amps = (joint / norm).take(_SUM_GATHER)
    (a, b, c), (d, e, f), (g, h, i) = np.abs(amps).tolist()
    probs = [a * a + d * d + g * g, b * b + e * e + h * h, c * c + f * f + i * i]
    outcome = _born_outcome(probs, probs[0] + probs[1] + probs[2], rng)
    # the register's collapse normalises over all nine entries; the zeros
    # change the dot's summation order and so the last bit of the state.
    # Adding into +0.0 makes a -0.0 amplitude +0.0, as the register's
    # matrix products do
    kept = np.zeros((3, 3), complex)
    column = kept[:, outcome]
    column += amps[:, outcome]
    marginal = column / _norm(kept)
    return FLIP_PATTERNS[outcome], marginal / _norm(marginal)


def _sign_class(pattern):
    """A sign pattern modulo global sign (the Klein four-group) as 2 bits,
    (s0 != s1) | (s2 != s0) << 1: a product of patterns XORs the codes."""
    return int(pattern[0] != pattern[1]) | int(pattern[2] != pattern[0]) << 1


# outcome j -> the code its round XORs in; Flip[2] is outcome 0's pattern
_STEPS = np.array([_sign_class(FLIP_PATTERNS[j]) for j in range(3)], np.uint8)
_ABSORBING = _sign_class(FLIP_PATTERNS[0])


def _round_count(n):
    """``n`` as an int >= 0; a bool or a non-integer raises ``TypeError``,
    a negative count ``ValueError``."""
    if isinstance(n, bool):
        raise TypeError(f"a round count must be an integer, got {n!r}")
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"a round count must be >= 0, got {n}")
    return n


def exact_flip_probability(n):
    """p_n = 1 - (2/3)^n as an exact Fraction, for an integer n >= 0."""
    return 1 - Fraction(2, 3) ** _round_count(n)


def exact_flip_curve(n_max):
    """Absorption probabilities of the 4-state quotient chain, exactly.

    States are the Klein four-group of sign patterns modulo global sign
    (:func:`_sign_class` codes); each round multiplies by one of the three
    flip classes with probability 1/3, absorbing at the Flip[2] class.
    One row per round 1..``n_max``, an integer >= 0.
    """
    n_max = _round_count(n_max)
    third = Fraction(1, 3)
    dist = [Fraction(1)] + [Fraction(0)] * 3  # the identity class, code 0
    absorbed = Fraction(0)
    curve = []
    for _ in range(n_max):
        new = [Fraction(0)] * 4
        for code, mass in enumerate(dist):
            for step in _STEPS.tolist():
                new[code ^ step] += third * mass
        absorbed += new[_ABSORBING]
        new[_ABSORBING] = Fraction(0)
        dist = new
        curve.append(absorbed)
    return curve


@dataclass
class FlipCurveRow:
    n: int
    p_hat: float
    p_exact: float
    stderr: float


# Live trials per block of the Monte Carlo round loop.  A block's
# temporaries, a few arrays of _BLOCK entries, stay in cache.
_BLOCK = 1 << 13

_MAX_TRIALS, _MAX_ROUNDS = 10 ** 7, 10 ** 5  # 10 MB of trial state, 23 MB of rows


def estimate_flip_success(trials, n_max, seed):
    """Monte Carlo estimate of the Flip[2] success curve.

    Runs ``trials`` independent protocol executions as one vectorised
    batch.  A round is not simulated on the two-qutrit state vector: SUM
    with a fresh exact ancilla followed by measuring the ancilla gives
    outcome j with probability sum_i |phi_i shifted[i, j]|^2 and leaves the
    data amplitudes phi * shifted[:, j] (normalised).
    Success at round n means the accumulated sign pattern equals Flip[2]
    up to a global sign.  Returns one row per n with the empirical
    cumulative success rate and its binomial standard error.

    Every live trial has the same amplitude magnitudes, so they are one
    shared (3, 1) float64 column.  This is exact: the start state is
    (1, 1, 1)/sqrt(3), every entry of ``shifted`` is +-1/sqrt(3), and IEEE
    multiply, square and divide are sign-symmetric, so every trial and
    every outcome computes bit-identical probabilities and magnitudes.  A
    round's thresholds p0 and p0 + p1 are scalars, formed from the column
    by the ufunc sequence a per-trial kernel runs, and the column becomes
    |column * shifted[:, 0]| / sqrt(p0).  A trial is then only its sign
    pattern modulo global sign, one uint8 code (:func:`_sign_class`); a
    round XORs in its outcome's code, and the trial is absorbed at Flip[2]'s.
    A round walks the live codes in blocks of ``_BLOCK`` and writes each
    block's survivors to the front of the same array, at an offset no
    greater than the block's start, which no later block of the round
    reads: one byte per trial plus block-sized temporaries.  Each block
    draws its own ``rng.random(width)``; the Generator's doubles come one
    per 64-bit output, so the blocks together draw exactly the stream one
    ``rng.random(live)`` per round would, and the rows do not depend on
    the block size.
    ``trials`` runs up to ``_MAX_TRIALS`` and ``n_max`` to ``_MAX_ROUNDS``.
    """
    if not (1 <= trials <= _MAX_TRIALS and 1 <= n_max <= _MAX_ROUNDS):
        raise ValueError(f"need 1..{_MAX_TRIALS} trials and 1..{_MAX_ROUNDS} rounds")
    rng = np.random.default_rng(seed)
    psi = np.array([1.0, -1.0, 1.0]) / np.sqrt(3)
    # shifted[i, j] is the ancilla amplitude at outcome j after SUM when
    # the data qutrit is |i>; one round maps phi -> phi * shifted[:, j].
    shifted = psi[_SHIFT]
    column = np.full((3, 1), 1 / np.sqrt(3))  # every live trial's |phi|
    codes = np.zeros(trials, np.uint8)  # [0, live) holds the live trials
    successes = np.zeros(n_max, dtype=np.int64)
    live, done = trials, 0
    for round_index in range(n_max):
        if not live:
            successes[round_index:] = done
            break
        # p[j] = sum_i (phi_i shifted[i, j])^2, summed i = 0, 1, 2 in order
        sq0, sq1 = (np.square(column * shifted[:, j, None]) for j in (0, 1))
        p0, p1 = (sq0[0] + sq0[1]) + sq0[2], (sq1[0] + sq1[1]) + sq1[2]
        first, second = float(p0[0]), float((p0 + p1)[0])
        column = np.abs(column * shifted[:, 0, None]) / np.sqrt(p0)
        kept_live = 0
        for start in range(0, live, _BLOCK):
            stop = min(start + _BLOCK, live)
            # outcome = min(#{c in (p0, p0 + p1, total) : draw >= c}, 2); the
            # sums never decrease, so the min drops the third comparison
            draws = rng.random(stop - start)
            outcomes = np.add(draws >= first, draws >= second, dtype=np.intp)
            block = codes[start:stop] ^ _STEPS.take(outcomes)
            alive = block != _ABSORBING
            front = slice(kept_live, kept_live + int(np.count_nonzero(alive)))
            np.compress(alive, block, out=codes[front])
            kept_live = front.stop
        done += live - kept_live
        live = kept_live
        successes[round_index] = done
    p_hat = successes / trials
    stderr = np.sqrt(np.maximum(p_hat * (1 - p_hat), 1e-300) / trials)
    rows = []
    p_exact = 0.0
    for n, rate, err in zip(range(1, n_max + 1), p_hat.tolist(), stderr.tolist()):
        # float(1 - (2/3)^n) is correctly rounded, so it never decreases in n
        # and stays 1.0 once it gets there (n = 93); skip the Fraction from then on
        if p_exact < 1.0:
            p_exact = float(exact_flip_probability(n))
        rows.append(FlipCurveRow(n, rate, p_exact, err))
    return rows
