"""Finite numerical witnesses for the qudit universality arguments.

Everything here is assertable at desk scale: spectra, fixed vectors,
commutator norms, Schmidt ranks, subspace ranks, and root-of-unity
screens.  Density of the generated subgroups is *not* (and cannot be)
established numerically; these reports check exactly the finite facts the
density arguments rest on.

* Qutrit route: the commutators W[i] = H P[i] H^-1 P[i]^-1 and
  Z[i] = H P[i]^-1 H^-1 P[i] share the fixed vector E_i, and on its
  orthogonal complement both have the non-cyclotomic eigenvalue pair
  (2 +- i sqrt 5)/3 (roots of 3x^2 - 4x + 3) and fail to commute.
* Qupit route (odd prime p >= 5): X[i], Y[i] built from Q[i] act as the
  identity outside the plane S_i = span{|i>, sum_{j!=i} omega^{ij}|j>},
  are of infinite order inside it, and the planes chain together to all
  of C^p.
* Two-qudit route: SUM maps a product state to a Schmidt-rank-d state.
* The dimension-5 partial facts: commutators of H with the two-level
  phase gates diag(omega^k, omega^-k, 1, 1, 1) fix one common vector,
  pass the root-of-unity screen, and act irreducibly (scalar commutant)
  on the 4-dimensional complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gates import _MAX_DIM, hadamard, omega, p_gate, q_gate, relative_phase_gate
from .synthesis import _integer

__all__ = [
    "QutritCommutatorReport", "qutrit_commutator_witness",
    "InfiniteOrderReport", "infinite_order_witness",
    "ImprimitivityReport", "imprimitivity_witness",
    "SubspaceChainReport", "qupit_subspace_chain",
    "PartialResultsReport", "so5_partial_results",
    "qutrit_fixed_vector",
]

_EXPECTED_PAIR = ((2 + 1j * np.sqrt(5)) / 3, (2 - 1j * np.sqrt(5)) / 3)

_MAX_POWER = 10 ** 6  # the largest k_max: the domain of --k-max, 1..10^6


def qutrit_fixed_vector(i):
    """The common eigenvector E_i of W[i], Z[i] for eigenvalue 1 (unnormalized)."""
    w = omega(3)
    vecs = {
        0: np.array([0.0, -1.0, 1.0], dtype=complex),
        1: np.array([-w, 0.0, 1.0], dtype=complex),
        2: np.array([-w, 1.0, 0.0], dtype=complex),
    }
    return vecs[i]


@dataclass
class QutritCommutatorReport:
    i: int
    eigenvalues_w: np.ndarray
    eigenvalues_z: np.ndarray
    eigenvalue_residual: float
    polynomial_residual: float
    fixed_vector: np.ndarray
    fixed_vector_residual: float
    commutator_norm: float

    def passed(self, tol=1e-9):
        return (self.eigenvalue_residual < tol
                and self.polynomial_residual < tol
                and self.fixed_vector_residual < tol
                and self.commutator_norm > 1e-3)


def qutrit_commutator_witness(i):
    """Spectral witness for the commutators of H_3 with P[i]_3."""
    if i not in (0, 1, 2):
        raise ValueError("qutrit level index must be 0, 1 or 2")
    h = hadamard(3)
    p = p_gate(3, i)
    hi, pi = h.conj().T, p.conj().T
    w_mat = h @ p @ hi @ pi
    z_mat = h @ pi @ hi @ p

    def sorted_eigs(mat):
        vals = np.linalg.eigvals(mat)
        return vals[np.argsort(np.angle(vals))]

    ew, ez = sorted_eigs(w_mat), sorted_eigs(z_mat)
    expected = np.array(sorted([1.0 + 0j, *_EXPECTED_PAIR], key=np.angle))
    eig_res = max(abs(ew - expected).max(), abs(ez - expected).max())

    poly_res = 0.0
    for vals in (ew, ez):
        for lam in vals:
            if abs(lam - 1.0) > 1e-6:
                poly_res = max(poly_res, abs(3 * lam ** 2 - 4 * lam + 3))

    vals, vecs = np.linalg.eig(w_mat)
    vec = vecs[:, int(np.argmin(abs(vals - 1.0)))]
    ref = qutrit_fixed_vector(i)
    ref = ref / np.linalg.norm(ref)
    fixed_res = max(
        abs(abs(np.vdot(ref, vec)) - 1.0),  # parallel to E_i
        abs(w_mat @ vec - vec).max(),
        abs(z_mat @ vec - vec).max(),
    )
    comm = abs(w_mat @ z_mat - z_mat @ w_mat).max()
    return QutritCommutatorReport(i, ew, ez, float(eig_res), float(poly_res),
                                  vec, float(fixed_res), float(comm))


@dataclass
class InfiniteOrderReport:
    passed: bool
    min_power_gap: float
    eigenvalues: np.ndarray
    k_max: int
    delta: float


def infinite_order_witness(u, k_max=10000, delta=1e-6):
    """Root-of-unity screen: every eigenvalue farther than ``delta`` from 1
    must stay farther than ``delta`` from 1 under all powers up to
    ``k_max``, and at least one eigenvalue must be that far.  A pass is a
    finite witness for infinite order, not a proof.  ``k_max`` is an
    integer in 1.._MAX_POWER (a bool is refused), and ``delta`` lies in
    (0, 2): every unit eigenvalue is within 2 of 1.

    The gap |lam^k - 1| = 2|sin(k theta / 2)| of lam = e^{i theta} is
    evaluated only at the powers of :func:`_screened_powers`.  Its minimum
    over k <= k_max falls on the largest convergent denominator q <= k_max
    of |theta| / 2 pi (best approximation: Khinchin, *Continued Fractions*,
    Thms 16-17), or, at a finite order m = q, where every multiple of m
    is a round-off gap, on some multiple of q.  So an eigenvalue costs
    O(log k_max) evaluations plus k_max / q multiples: about k_max / m at
    a finite order m.
    """
    k_max = _integer(k_max)
    if not 1 <= k_max <= _MAX_POWER:
        raise ValueError(f"k_max must lie in 1..{_MAX_POWER}, got {k_max}")
    if not 0 < delta < 2:
        raise ValueError("delta must lie in (0, 2)")
    vals = np.linalg.eigvals(np.asarray(u, dtype=complex))
    min_gap = np.inf
    for lam in vals:
        if abs(lam - 1.0) <= delta:
            continue
        theta = np.angle(lam)
        ks = _screened_powers(theta, k_max)
        gaps = 2.0 * np.abs(np.sin(ks * theta / 2.0))
        min_gap = min(min_gap, float(gaps.min()))
    passed = bool(np.isfinite(min_gap) and min_gap > delta)  # inf: nothing was screened
    return InfiniteOrderReport(passed, float(min_gap), vals, k_max, delta)


def _screened_powers(theta, k_max):
    """The powers k <= k_max, ascending, at which the screen evaluates
    e^{i theta}: 1, every convergent denominator q of |theta| / 2 pi up to
    k_max, and every multiple of the last such q up to k_max.

    The continued fraction is expanded by Euclid's algorithm on the exact
    ratio of the float |theta| / 2 pi, so no step divides by a float, and
    it stops before a partial quotient takes the denominator past k_max.
    """
    num, den = (abs(float(theta)) / (2.0 * math.pi)).as_integer_ratio()
    denominators = [1]  # q_0 = 1: the ratio lies in [0, 1/2], so a_0 = 0
    before = 0  # q_{-1}
    while num:
        quotient, (den, num) = den // num, (num, den % num)
        q = quotient * denominators[-1] + before
        if q > k_max:
            break
        before = denominators[-1]
        denominators.append(q)
    last = denominators.pop()
    return np.concatenate([np.array(denominators, dtype=int), np.arange(last, k_max + 1, last)])


@dataclass
class ImprimitivityReport:
    schmidt_rank: int
    singular_values: np.ndarray
    input_state: np.ndarray


def imprimitivity_witness(u, d):
    """Schmidt rank of U applied to ((1/sqrt d) sum_i |i>) (x) |0>.

    Rank > 1 certifies the gate maps a product state to an entangled one.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (d * d, d * d):
        raise ValueError(f"gate of shape {u.shape} is not a two-qudit gate for d={d}")
    left = np.ones(d, dtype=complex) / np.sqrt(d)
    right = np.zeros(d, dtype=complex)
    right[0] = 1.0
    state = np.kron(left, right)
    image = (u @ state).reshape(d, d)
    singular = np.linalg.svd(image, compute_uv=False)
    return ImprimitivityReport(int((singular > 1e-9).sum()), singular, state)


@dataclass
class SubspaceChainReport:
    p: int
    identity_residual: float        # X[i], Y[i] on the complement of S_i
    restricted_commutator_min: float
    infinite_order_passed: bool
    min_power_gap: float
    chain_overlaps: list            # |<S_i, sum_{j<i} S_j>| witnesses, i >= 1
    total_rank: int

    def passed(self, tol=1e-9):
        # the commutator minimum falls roughly as p^-3, so it is held to the
        # round-off bound: "X[i] and Y[i] do not commute on S_i"
        return (self.identity_residual < tol
                and self.restricted_commutator_min > tol
                and self.infinite_order_passed
                and min(self.chain_overlaps) > 1e-9
                and self.total_rank == self.p)


def qupit_subspace_chain(p, k_max=10000, delta=1e-6):
    """Verify the S_i-plane structure of the commutators for prime p >= 5."""
    if not 5 <= p <= _MAX_DIM or any(p % k == 0 for k in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p must be an odd prime in 5..{_MAX_DIM}")
    h = hadamard(p)
    hi = h.conj().T
    w = omega(p)

    planes = []
    for i in range(p):
        first = np.zeros(p, dtype=complex)
        first[i] = 1.0
        second = np.array([w ** (i * j) if j != i else 0.0 for j in range(p)], dtype=complex)
        second /= np.linalg.norm(second)
        planes.append(np.column_stack([first, second]))

    identity_res = 0.0
    comm_min = np.inf
    min_gap = np.inf
    all_infinite = True
    for i in range(p):
        q = q_gate(p, i)
        qi = q.conj().T
        x_mat = h @ q @ hi @ qi
        y_mat = h @ qi @ hi @ q
        basis = planes[i]
        comp = np.linalg.svd(basis, full_matrices=True)[0][:, 2:]
        identity_res = max(identity_res,
                           abs(x_mat @ comp - comp).max(),
                           abs(y_mat @ comp - comp).max())
        xr = basis.conj().T @ x_mat @ basis
        yr = basis.conj().T @ y_mat @ basis
        comm_min = min(comm_min, abs(xr @ yr - yr @ xr).max())
        for mat in (xr, yr):
            rep = infinite_order_witness(mat, k_max, delta)
            all_infinite = all_infinite and rep.passed
            min_gap = min(min_gap, rep.min_power_gap)

    overlaps = []
    for i in range(1, p):
        prev = np.hstack(planes[:i])
        overlap = np.linalg.svd(planes[i].conj().T @ prev, compute_uv=False).max()
        overlaps.append(float(overlap))
    stacked = np.hstack(planes)
    total_rank = int((np.linalg.svd(stacked, compute_uv=False) > 1e-9).sum())
    return SubspaceChainReport(p, float(identity_res), float(comm_min),
                               all_infinite, float(min_gap), overlaps, total_rank)


@dataclass
class PartialResultsReport:
    fix_residual: float
    infinite_order_passed: bool
    min_power_gap: float
    commutant_dim: int
    fixed_vector: np.ndarray
    r_matrix_k1: np.ndarray
    x_matrices: list = field(repr=False, default_factory=list)

    def passed(self, tol=1e-8):
        return (self.fix_residual < tol
                and self.infinite_order_passed
                and self.commutant_dim == 1)


def so5_partial_results(k_max=10000, delta=1e-6):
    """The dimension-5 commutator facts behind the braid image analysis.

    Uses the two-level phase gates R_k = diag(w^k, w^-k, 1, 1, 1) (levels
    0 and 1) and X_k = H R_k H^-1 R_k^-1 for k = 1..4: the four X_k fix
    w^-1|2> + ((sqrt5+1)/2) w^2 |3> + |4>, pass the root-of-unity screen,
    and have a one-dimensional joint commutant on the complement.
    """
    w = omega(5)
    h = hadamard(5)
    hi = h.conj().T
    fixed = np.array([0.0, 0.0, w ** -1, (np.sqrt(5) + 1) / 2 * w ** 2, 1.0], dtype=complex)
    fixed /= np.linalg.norm(fixed)

    x_mats = []
    fix_res = 0.0
    min_gap = np.inf
    all_infinite = True
    for k in range(1, 5):
        r_k = relative_phase_gate(5, 0, 1, k)
        x_k = h @ r_k @ hi @ r_k.conj().T
        x_mats.append(x_k)
        fix_res = max(fix_res, abs(x_k @ fixed - fixed).max())
        rep = infinite_order_witness(x_k, k_max, delta)
        all_infinite = all_infinite and rep.passed
        min_gap = min(min_gap, rep.min_power_gap)

    comp = np.linalg.svd(fixed[:, None], full_matrices=True)[0][:, 1:]
    restricted = [comp.conj().T @ x @ comp for x in x_mats]
    eye4 = np.eye(4)
    rows = [np.kron(xr, eye4) - np.kron(eye4, xr.T) for xr in restricted]
    stacked = np.vstack(rows)
    nullity = int((np.linalg.svd(stacked, compute_uv=False) < 1e-7).sum())
    return PartialResultsReport(float(fix_res), all_infinite, float(min_gap),
                                nullity, fixed, relative_phase_gate(5, 0, 1, 1),
                                x_mats)
