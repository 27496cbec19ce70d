"""Exact constructors for the qudit gate set, and up-to-phase comparison.

Computational basis is indexed 0..d-1; for two-qudit gates the first
factor is the control/left qudit and |i,j> has flat index i*d + j.

Gates (omega = exp(2 pi i / d)):
    H[d]      |j>   -> (1/sqrt d) sum_i omega^{ij} |i>
    SUM[d]    |i,j> -> |i, i+j mod d>
    Q[i,d]    |j>   -> omega^{delta_ij} |j>
    P[i,d]    |j>   -> (-omega^2)^{delta_ij} |j>
    X[d]      |i>   -> |i+1 mod d>
    Z[d]      |i>   -> omega^i |i>
    CZ[d]     |i,j> -> omega^{ij} |i,j>
    FLIP[i,d] |j>   -> (-1)^{delta_ij} |j>
    M[k,d]    |i>   -> |k i mod d>        (requires gcd(k, d) = 1)
    R[i,j,k,d] = (Q[i] Q[j]^-1)^k          (requires i != j)
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GateSpec", "omega", "hadamard", "sum_gate", "q_gate", "p_gate",
    "x_gate", "z_gate", "cz_gate", "flip_gate", "mult_gate", "relative_phase_gate",
    "make_gate", "parse_gate", "phase_distance", "equal_up_to_phase",
]


def omega(d):
    return cmath.exp(2j * math.pi / d)


def hadamard(d):
    w = omega(d)
    mat = np.array([[w ** (i * j) for j in range(d)] for i in range(d)], dtype=complex)
    return mat / math.sqrt(d)


def sum_gate(d):
    mat = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            mat[i * d + (i + j) % d, i * d + j] = 1.0
    return mat


def q_gate(d, i):
    _check_index(d, i)
    diag = np.ones(d, dtype=complex)
    diag[i] = omega(d)
    return np.diag(diag)


def p_gate(d, i):
    _check_index(d, i)
    diag = np.ones(d, dtype=complex)
    diag[i] = -omega(d) ** 2
    return np.diag(diag)


def x_gate(d):
    mat = np.zeros((d, d), dtype=complex)
    for i in range(d):
        mat[(i + 1) % d, i] = 1.0
    return mat


def z_gate(d):
    return np.diag(np.array([omega(d) ** i for i in range(d)], dtype=complex))


def cz_gate(d):
    diag = np.array([omega(d) ** (i * j) for i in range(d) for j in range(d)], dtype=complex)
    return np.diag(diag)


def flip_gate(d, i):
    _check_index(d, i)
    diag = np.ones(d, dtype=complex)
    diag[i] = -1.0
    return np.diag(diag)


def mult_gate(d, k):
    if math.gcd(k, d) != 1:
        raise ValueError(f"multiplication gate needs gcd(k,d)=1, got k={k}, d={d}")
    mat = np.zeros((d, d), dtype=complex)
    for i in range(d):
        mat[(k * i) % d, i] = 1.0
    return mat


def relative_phase_gate(d, i, j, k=1):
    """R[i,j,k] = (Q[i] Q[j]^-1)^k: opposite phases on levels i and j."""
    if i == j:
        raise ValueError("relative phase gate needs i != j")
    _check_index(d, i)
    _check_index(d, j)
    diag = np.ones(d, dtype=complex)
    diag[i] = omega(d) ** k
    diag[j] = omega(d) ** (-k)
    return np.diag(diag)


def _check_index(d, i):
    if not 0 <= i < d:
        raise ValueError(f"index {i} out of range for dimension {d}")


@dataclass(frozen=True)
class GateSpec:
    """Symbolic gate: kind, qudit dimension, and integer parameters."""

    kind: str
    d: int
    params: tuple = ()


# kind -> (constructor taking (d, *params), number of params, number of qudits)
_MAKERS = {
    "H": (hadamard, 0, 1),
    "SUM": (sum_gate, 0, 2),
    "Q": (q_gate, 1, 1),
    "P": (p_gate, 1, 1),
    "X": (x_gate, 0, 1),
    "Z": (z_gate, 0, 1),
    "CZ": (cz_gate, 0, 2),
    "FLIP": (flip_gate, 1, 1),
    "M": (mult_gate, 1, 1),
    "R": (relative_phase_gate, 3, 1),
}

# The largest side of a gate (d, or d^2 for SUM and CZ), checked before it
# is built, and the largest qudit dimension of a witness: 1 MiB matrices.
_MAX_DIM = 256


def make_gate(spec):
    if spec.kind not in _MAKERS:
        raise ValueError(f"unknown gate kind {spec.kind!r}")
    if spec.d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {spec.d}")
    maker, n_params, n_qudits = _MAKERS[spec.kind]
    if len(spec.params) != n_params:
        raise ValueError(f"gate {spec.kind} takes {n_params} parameters, got {len(spec.params)}")
    if spec.d ** n_qudits > _MAX_DIM:
        raise ValueError(f"gate {spec.kind}{spec.d} acts on more than {_MAX_DIM} dimensions")
    return maker(spec.d, *spec.params)


_GATE_RE = re.compile(r"^([A-Z]+)(\d+)(?:\[([0-9,\s]+)\])?$")


def parse_gate(text):
    """Parse names like H3, SUM3, Q3[1], FLIP3[2], M5[2], R5[1,2,3]."""
    m = _GATE_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse gate name {text!r}")
    kind, d, args = m.group(1), int(m.group(2)), m.group(3)
    params = tuple(int(x) for x in args.split(",")) if args else ()
    spec = GateSpec(kind, d, params)
    make_gate(spec)  # validate eagerly
    return spec


def _unitary(gate):
    """``gate`` as a complex array, checked to be a finite unitary matrix
    to 1e-9."""
    gate = np.asarray(gate, dtype=complex)
    if gate.ndim != 2 or gate.shape[0] != gate.shape[1]:
        raise ValueError(f"gate of shape {gate.shape} is not a square matrix")
    if not np.isfinite(gate).all():
        raise ValueError("gate has non-finite entries")
    residual = abs(gate @ gate.conj().T - np.eye(len(gate))).max(initial=0.0)
    if not residual <= 1e-9:
        raise ValueError(f"gate is not unitary (|U U^dagger - 1| = {residual:.3e})")
    return gate


# ---------------------------------------------------------------------------
# up-to-phase comparison


def _anchor(m):
    """Index of the entry that fixes a phase: the max-modulus entry of m,
    smallest (row, col) among ties within 1e-9.  On a (..., d, d) stack
    this is a tuple of index arrays, so ``m[_anchor(m)]`` holds the anchor
    entry of every slice."""
    mags = np.abs(m).reshape(*m.shape[:-2], m.shape[-2] * m.shape[-1])  # no -1: a stack may be empty
    top = mags >= mags.max(axis=-1, keepdims=True) - 1e-9
    return (*np.indices(m.shape[:-2], sparse=True), *np.divmod(top.argmax(axis=-1), m.shape[-1]))


def _modulus(z):
    # np.abs rounds differently from the scalar abs() on about a third of
    # complex inputs; hypot agrees with it, so a (..., d, d) stack gets
    # the very same phases its slices would get one by one
    return np.hypot(z.real, z.imag)


def phase_distance(u, v):
    """(residual, theta): the max-entry deviation of u from theta*v, with
    theta the unit phase read off the :func:`_anchor` entry of v, or 1
    where u is zero there (so a zero u lies max|v| from v).  On
    (..., d, d) stacks both are arrays over the leading axes."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    idx = _anchor(v)
    theta = np.asarray(u[idx] / v[idx])
    modulus = _modulus(theta)
    np.divide(theta, modulus, out=theta, where=modulus > 1e-30)
    theta[modulus <= 1e-30] = 1
    return np.abs(u - theta[..., None, None] * v).max(axis=(-2, -1)), theta[()]


def equal_up_to_phase(u, v):
    """True (with the matching phase) iff u = theta*v entrywise to below 1e-8."""
    residual, theta = phase_distance(u, v)
    return residual < 1e-8, theta
