"""Weak-coupling propagator for pulse sequences.

Delays evolve under the ZZ coupling Hamiltonian 2*pi*sum_{i<j} J_ij Iz_i
Iz_j alone (chemical shifts are absorbed by the multiply rotating frame
and assumed refocused), selective pulses are instantaneous single-spin
rotations, and frame shifts are z rotations.

One event engine, `propagate`, pushes a block of state vectors through an
event list. It has two users: `simulate_sequence` propagates the identity
to get the composite unitary (the dense oracle, up to 8 spins), and
`verify_permutation` propagates a few seeded probe vectors to check a
compiled sequence against its logical permutation without building any
2**n x 2**n matrix.
"""
from __future__ import annotations

import numpy as np

from .pulses import Delay, FrameShift, PulseSequence, SelectivePulse
from .states import UNITARITY_TOL, Unitary, check_capacity, iz_diag
from .system import SpinSystem

PATTERN_TOL = 1e-8
PROBE_SEED = 0
PROBE_COUNT = 2


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


def propagate(seq: PulseSequence, vecs: np.ndarray) -> np.ndarray:
    """Apply the sequence's events, first to last, to a (2**n, k) block of columns.

    A pulse or frame shift multiplies its spin's axis of the (2**spin, 2,
    rest) view of the block by its 2x2 matrix, and a delay multiplies the
    rows by its coupling phases: O(2**n * k) per event. Within one call each
    delay duration's phases and each distinct pulse or frame shift's matrix
    are built once (events are frozen, so an event is its own cache key),
    and spin labels are mapped to indices once.
    """
    system = seq.system
    dim = 1 << system.n
    out = np.asarray(vecs, dtype=complex)
    if out.ndim != 2 or out.shape[0] != dim:
        raise ValueError(f"expected a ({dim}, k) block of vectors, got shape {out.shape}")
    index = {label: spin for spin, label in enumerate(system.labels)}
    phases: dict[float, np.ndarray] = {}
    matrices: dict[SelectivePulse | FrameShift, np.ndarray] = {}
    for event in seq.events:
        if isinstance(event, Delay):
            if event.duration_s not in phases:
                phases[event.duration_s] = _delay_phases(system, event.duration_s)
            out = phases[event.duration_s][:, None] * out
        else:
            if event not in matrices:
                matrices[event] = _single_spin_matrix(event)
            out = (matrices[event] @ out.reshape(1 << index[event.spin], 2, -1)).reshape(out.shape)
    return out


def simulate_sequence(seq: PulseSequence) -> Unitary:
    """Composite unitary of an event list, for systems of up to 8 spins.

    The identity propagated through the events by `propagate`, O(4**n) per
    event, then checked against U U+ = 1 by `Unitary` in O(8**n). This is
    the dense oracle that `verify_permutation` avoids.
    """
    n = seq.system.n
    check_capacity(n, dense=True)
    return Unitary(n=n, mat=propagate(seq, np.eye(1 << n, dtype=complex)))


def verify_permutation(seq: PulseSequence, perm) -> bool:
    """True when the sequence's unitary U equals D P for some diagonal unitary D.

    P sends basis state i to perm[i]. U = D P is exactly the condition that
    `phase_pattern_equal(simulate_sequence(seq), permutation_unitary(perm))`
    tests: a unitary whose entries have the magnitudes of a permutation
    matrix has one unit-modulus entry per column, in row perm[i], so it is a
    permutation matrix with phases, D P; and D P has that magnitude pattern.

    Instead of building U, this is Freivalds' check (R. Freivalds, 1977) on
    M = U P^-1, which is diagonal exactly when it commutes with a diagonal
    L = diag(lam) of distinct entries. Since P diag(lam[perm]) = L P,
    M L = L M is the same as U diag(lam[perm]) = L U, and the check applies
    both sides to random vectors w: entry (i, j) of M L - L M is
    M_ij (lam_j - lam_i), so any off-diagonal M_ij leaves a residual for
    almost every draw of lam and w. The probes are seeded
    (`np.random.default_rng(0)`: two complex vectors w and unit-modulus lam),
    so the verdict is deterministic, and the cost is one propagation of four
    columns, O(events * 2**n), with no 2**n x 2**n matrix.

    PASS when max |U(lam[perm] w) - lam (U w)| <= PATTERN_TOL, the default
    tolerance of `phase_pattern_equal`. Raises ValueError if any probe's
    norm changes by more than UNITARITY_TOL (relative), as a non-unitary
    `Unitary` does.
    """
    n = seq.system.n
    check_capacity(n)
    dim = 1 << n
    perm = np.asarray(perm, dtype=np.intp)
    if perm.shape != (dim,):
        raise ValueError(f"permutation must have {dim} entries, got shape {perm.shape}")
    if not np.array_equal(np.sort(perm), np.arange(dim)):
        raise ValueError("mapping is not a bijection on basis states")
    rng = np.random.default_rng(PROBE_SEED)
    w = rng.standard_normal((dim, PROBE_COUNT)) + 1.0j * rng.standard_normal((dim, PROBE_COUNT))
    lam = np.exp(2.0j * np.pi * rng.random(dim))
    probes = np.concatenate([w, lam[perm][:, None] * w], axis=1)
    out = propagate(seq, probes)
    drift = np.abs(np.linalg.norm(out, axis=0) / np.linalg.norm(probes, axis=0) - 1.0).max()
    if not float(drift) <= UNITARITY_TOL:
        raise ValueError(f"sequence is not unitary (probe norm drift {float(drift):.3g})")
    residual = np.abs(out[:, PROBE_COUNT:] - lam[:, None] * out[:, :PROBE_COUNT]).max()
    return bool(residual <= PATTERN_TOL)


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


def phase_pattern_equal(v: Unitary, u: Unitary, tol: float = PATTERN_TOL) -> bool:
    """True when the two unitaries agree entrywise in magnitude.

    For u a permutation matrix this is the right notion of a compiled
    circuit being correct up to phases: two unitaries with the same
    magnitude pattern act identically on diagonal (population) states.
    """
    if v.mat.shape != u.mat.shape:
        raise ValueError(f"dimension mismatch: {v.mat.shape} vs {u.mat.shape}")
    return bool(np.max(np.abs(np.abs(v.mat) - np.abs(u.mat))) <= tol)
