"""Weak-coupling propagator for pulse sequences.

Delays evolve under the ZZ coupling Hamiltonian 2*pi*sum_{i<j} J_ij Iz_i
Iz_j alone (chemical shifts are absorbed by the multiply rotating frame
and assumed refocused), selective pulses are instantaneous single-spin
rotations, and frame shifts are z rotations. The result is the composite
unitary of the whole event list, suitable for checking a compiled
sequence against the logical circuit it came from.
"""
from __future__ import annotations

import numpy as np

from .pulses import Delay, FrameShift, PulseSequence, SelectivePulse
from .states import Unitary, check_capacity, iz_diag
from .system import SpinSystem


def _delay_phases(system: SpinSystem, seconds: float) -> np.ndarray:
    """Diagonal of exp(-i 2 pi t sum_{i<j} J_ij m_i m_j), m = +/- 1/2."""
    n = system.n
    half = [iz_diag(n, spin) for spin in range(n)]
    angle = np.zeros(1 << n)
    for i in range(n):
        for j in range(i + 1, n):
            j_hz = system.j_hz[i][j]
            if j_hz != 0.0:
                angle += 2.0 * np.pi * j_hz * seconds * half[i] * half[j]
    return np.exp(-1.0j * angle)


def _single_spin_matrix(event: SelectivePulse | FrameShift) -> np.ndarray:
    theta = np.radians(event.angle_deg)
    if isinstance(event, SelectivePulse):
        phi = np.radians(event.phase_deg)
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        return np.array(
            [[c, -1.0j * s * np.exp(-1.0j * phi)], [-1.0j * s * np.exp(1.0j * phi), c]]
        )
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def simulate_sequence(seq: PulseSequence) -> Unitary:
    """Composite unitary of an event list, for systems of up to 8 spins.

    A pulse or frame shift multiplies the spin's axis of a (2**spin, 2, rest)
    view of the running unitary by its 2x2 matrix, O(d**2) per event. A
    delay's phases are built once per distinct duration within the call.
    """
    system = seq.system
    n = system.n
    check_capacity(n, dense=True)
    total = np.eye(1 << n, dtype=complex)
    phases: dict[float, np.ndarray] = {}
    for event in seq.events:
        if isinstance(event, Delay):
            if event.duration_s not in phases:
                phases[event.duration_s] = _delay_phases(system, event.duration_s)
            total = phases[event.duration_s][:, None] * total
        else:
            spin = system.spin_index(event.spin)
            m = _single_spin_matrix(event)
            total = (m @ total.reshape(1 << spin, 2, -1)).reshape(total.shape)
    return Unitary(n=n, mat=total)


def permutation_unitary(perm) -> Unitary:
    """The unitary sending basis state i to basis state perm[i]."""
    perm = np.asarray(perm, dtype=np.intp)
    dim = perm.shape[0]
    n = int(dim).bit_length() - 1
    if dim != 1 << n:
        raise ValueError(f"permutation length {dim} is not a power of two")
    mat = np.zeros((dim, dim), dtype=complex)
    mat[perm, np.arange(dim)] = 1.0
    return Unitary(n=n, mat=mat)


def phase_pattern_equal(v: Unitary, u: Unitary, tol: float = 1e-8) -> bool:
    """True when the two unitaries agree entrywise in magnitude.

    For u a permutation matrix this is the right notion of a compiled
    circuit being correct up to phases: two unitaries with the same
    magnitude pattern act identically on diagonal (population) states.
    """
    if v.mat.shape != u.mat.shape:
        raise ValueError(f"dimension mismatch: {v.mat.shape} vs {u.mat.shape}")
    return bool(np.max(np.abs(np.abs(v.mat) - np.abs(u.mat))) <= tol)
