"""Weak-coupling propagator for pulse sequences.

Delays evolve under the ZZ coupling Hamiltonian 2*pi*sum_{i<j} J_ij Iz_i
Iz_j alone (chemical shifts are absorbed by the multiply rotating frame
and assumed refocused), selective pulses are instantaneous single-spin
rotations, and frame shifts are z rotations.

One event engine, `propagate`, pushes a block of state vectors through an
event list in the toggling frame: delays, frame shifts and 180-degree
pulses are each a flip times a diagonal, so each maximal run of them is
one diagonal and one flip, and only the remaining pulses are applied one
by one. The cost is O(events * n) bookkeeping plus
O(runs * (n**2 + k) * 2**n) array work for k vectors.

The engine has two users: `simulate_sequence` propagates the identity to
get the composite unitary (the dense oracle, up to 8 spins), and
`verify_permutation` propagates a few seeded probe vectors to check a
compiled sequence against its logical permutation without building any
2**n x 2**n matrix.
"""
from __future__ import annotations

import numpy as np

from .pulses import Delay, FrameShift, PulseSequence, SelectivePulse
from .states import MAX_DENSE_SPINS, MAX_VERIFY_SPINS, UNITARITY_TOL, Unitary, as_permutation
from .states import capacity_limit, check_capacity, iz_diag, spin_axis
from .system import SpinSystem

PATTERN_TOL = 1e-8
PROBE_SEED = 0
PROBE_COUNT = 2


def _single_spin_matrix(pulse: SelectivePulse) -> np.ndarray:
    theta, phi = np.radians(pulse.angle_deg), np.radians(pulse.phase_deg)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1.0j * s * np.exp(-1.0j * phi)], [-1.0j * s * np.exp(1.0j * phi), c]])


class _TogglingFrame:
    """A run of delays, frame shifts and 180-degree pulses, held as g X_S D.

    Every such event is a flip times a diagonal, so their product is too: a
    global phase g, the flip X_S of the spins whose toggling sign sigma is
    -1, and a diagonal D = exp(-i sum_i L_i Iz_i - i 2 pi sum_{i<j} J_ij
    K_ij Iz_i Iz_j). Moving an event's diagonal past X_S flips the sign of
    each flipped spin's Iz, so each event only updates the bookkeeping
    (Haeberlen & Waugh, Phys. Rev. 175, 453 (1968)):

    * a delay t adds t to the time spent in the current sign pattern, and
      K_ij is the sum of t sigma_i sigma_j over the patterns;
    * a frame shift theta adds sigma theta to its spin's L;
    * a 180-degree pulse about phase phi is -i sign(sin(theta/2))
      exp(-i 2 phi Iz) X: it flips sigma, then adds sigma 2 phi to L, and
      multiplies g by -i sign(sin(theta/2)).

    `flush` applies the run to a block and starts an empty one.
    """

    def __init__(self, system: SpinSystem):
        n = system.n
        self.iz = np.array([iz_diag(n, spin) for spin in range(n)])
        self.coupling = 2.0 * np.pi * np.triu(system.j_hz, 1)
        self._start()

    def _start(self) -> None:
        n = len(self.iz)
        self.sign = [1] * n
        self.times: dict[tuple[int, ...], float] = {}
        self.linear_deg = [0.0] * n
        self.phase = 1.0 + 0.0j

    def delay(self, seconds: float) -> None:
        key = tuple(self.sign)
        self.times[key] = self.times.get(key, 0.0) + seconds

    def shift(self, spin: int, angle_deg: float) -> None:
        self.linear_deg[spin] += self.sign[spin] * angle_deg

    def flip(self, spin: int, pulse: SelectivePulse) -> None:
        self.sign[spin] = -self.sign[spin]
        self.linear_deg[spin] += self.sign[spin] * 2.0 * pulse.phase_deg
        self.phase *= -1.0j if pulse.angle_deg % 720.0 == 180.0 else 1.0j

    def flush(self, out: np.ndarray) -> np.ndarray:
        """The block with the run applied (D, then X_S, times g); the run starts over."""
        if self.phase == 1.0 and not self.times and not any(self.linear_deg) and min(self.sign) > 0:
            return out  # the identity, e.g. an empty run between two pulses
        angle = np.radians(self.linear_deg) @ self.iz
        if self.times:
            signs = np.array(list(self.times))
            seconds = np.array(list(self.times.values()))
            pairs = self.coupling * (signs.T @ (seconds[:, None] * signs))
            angle += np.einsum("ib,ib->b", pairs @ self.iz, self.iz)
        out = (self.phase * np.exp(-1.0j * angle))[:, None] * out
        for spin, sign in enumerate(self.sign):
            if sign < 0:
                out = spin_axis(out, spin)[:, ::-1].reshape(out.shape)
        self._start()
        return out


def propagate(seq: PulseSequence, vecs: np.ndarray) -> np.ndarray:
    """Apply the sequence's events, first to last, to a (2**n, k) block of columns.

    Delays, frame shifts and pulses through an odd multiple of 180 degrees
    are each a flip times a diagonal. Each maximal run of them is collapsed
    in the toggling frame (`_TogglingFrame`) and applied as one diagonal and
    one flip of the spins it leaves flipped. Any other pulse then multiplies
    its spin's axis of the block (`spin_axis`) by its 2x2 matrix, built once
    per distinct pulse (events are frozen, so a pulse is its own cache key).
    The cost is O(events * n) Python bookkeeping plus
    O(runs * (n**2 + k) * 2**n) array work, where runs is one more than the
    number of other pulses.
    """
    system = seq.system
    dim = 1 << system.n
    out = np.asarray(vecs, dtype=complex)
    if out.ndim != 2 or out.shape[0] != dim:
        raise ValueError(f"expected a ({dim}, k) block of vectors, got shape {out.shape}")
    index = {label: spin for spin, label in enumerate(system.labels)}
    matrices: dict[SelectivePulse, np.ndarray] = {}
    frame = _TogglingFrame(system)
    for event in seq.events:
        if isinstance(event, Delay):
            frame.delay(event.duration_s)
        elif isinstance(event, FrameShift):
            frame.shift(index[event.spin], event.angle_deg)
        elif event.angle_deg % 360.0 == 180.0:
            frame.flip(index[event.spin], event)
        else:
            out = frame.flush(out)
            if event not in matrices:
                matrices[event] = _single_spin_matrix(event)
            out = (matrices[event] @ spin_axis(out, index[event.spin])).reshape(out.shape)
    return frame.flush(out)


def simulate_sequence(seq: PulseSequence) -> Unitary:
    """Composite unitary of an event list, for systems of up to 8 spins.

    The identity propagated through the events by `propagate`, O(4**n) per
    run of delays, frame shifts and 180-degree pulses and per other pulse,
    then checked against U U+ = 1 by `Unitary` in O(8**n). This is the
    dense oracle that `verify_permutation` avoids.
    """
    n = seq.system.n
    check_capacity(n, limit=capacity_limit(MAX_DENSE_SPINS), kind="a dense matrix")
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
    columns (see `propagate`), with no 2**n x 2**n matrix.

    PASS when max |U(lam[perm] w) - lam (U w)| <= PATTERN_TOL, the default
    tolerance of `phase_pattern_equal`. Raises ValueError if any probe's
    norm changes by more than UNITARITY_TOL (relative), as a non-unitary
    `Unitary` does, and if `perm` is not a bijection of integer entries;
    raises CapacityError past the verification budget, MAX_VERIFY_SPINS
    unless `COOLSPIN_MAX_N` overrides it.
    """
    n = seq.system.n
    # The toggling frame holds n rows of 2**n floats, and a flush a second set.
    check_capacity(n, limit=capacity_limit(MAX_VERIFY_SPINS), kind="verification")
    dim = 1 << n
    perm = as_permutation(perm, dim)
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
    dim = np.size(perm)
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise ValueError(f"permutation length {dim} is not a power of two")
    perm = as_permutation(perm, dim)
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
