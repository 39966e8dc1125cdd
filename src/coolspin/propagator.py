"""Weak-coupling propagator for pulse sequences.

Delays evolve under the ZZ coupling Hamiltonian 2*pi*sum_{i<j} J_ij Iz_i
Iz_j alone (chemical shifts are absorbed by the multiply rotating frame
and assumed refocused), selective pulses are instantaneous single-spin
rotations, and frame shifts are z rotations.

One event engine, `propagate`, pushes a block of k state vectors through an
event list in the toggling frame, in three passes. A plain-Python
bookkeeping pass walks the events once: delays, frame shifts and
180-degree pulses are each a flip times a diagonal, so their flips are only
counted, their phases make one power of i, and each maximal run of them
between two other pulses is kept as its z angles and its delay time per
sign pattern; two other pulses on one spin with an empty run between them
make one 2x2 matrix. A diagonal pass computes the diagonals of a chunk of
runs at a time, about 2**14 entries, with no n x 2**n array, and an apply
pass multiplies the block by each diagonal and each pulse's spin axis by
its matrix. The cost is O(events) bookkeeping plus
O(runs * (n + k) * 2**n) array work, in two blocks and one chunk of memory.

The engine has two users: `simulate_sequence` propagates the identity to
get the composite unitary (the dense oracle, up to 8 spins), and
`verify_permutation` propagates a few seeded probe vectors to check a
compiled sequence against its logical permutation without building any
2**n x 2**n matrix.
"""
from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .pulses import Delay, FrameShift, PulseSequence, SelectivePulse
from .states import MAX_DENSE_SPINS, MAX_VERIFY_SPINS, UNITARITY_TOL, Unitary, as_permutation
from .states import capacity_limit, check_capacity, iz_diag, spin_axis, spin_bit

PATTERN_TOL = 1e-8
PROBE_SEED = 0
PROBE_COUNT = 2
_CHUNK_ENTRIES = 1 << 14  # diagonal entries computed per chunk of runs


def _single_spin_matrix(pulse: SelectivePulse) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """The pulse's 2x2 rotation, as two rows of Python complex numbers."""
    theta, phi = math.radians(pulse.angle_deg), math.radians(pulse.phase_deg)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return ((c, -1.0j * s * cmath.exp(-1.0j * phi)), (-1.0j * s * cmath.exp(1.0j * phi), c))


class _Run:
    """The diagonal D of a run of delays, frame shifts and 180-degree pulses.

    Each such event is a flip times a diagonal. The block is kept as X_F out,
    where F (an int mask of basis bits) holds every flip so far, and moving
    a diagonal past X_F flips the sign sigma of each flipped spin's Iz, so
    the run is one diagonal D = exp(-i sum_i L_i Iz_i - i 2 pi sum_{i<j}
    J_ij K_ij Iz_i Iz_j) on `out` (Haeberlen & Waugh, Phys. Rev. 175, 453
    (1968)):

    * a delay t adds t to `delays[F]`, and K_ij is the sum of t sigma_i
      sigma_j over the sign patterns F;
    * a frame shift theta adds sigma theta to its spin's `linear` angle;
    * a 180-degree pulse about phase phi is -i sign(sin(theta/2))
      exp(-i 2 phi Iz) X: it flips its spin in F, then adds sigma 2 phi to
      L, and its phase joins one power of i for the whole sequence.
    """

    def __init__(self):
        self.linear: dict[int, float] = {}  # degrees per spin
        self.delays: dict[int, float] = {}  # seconds per sign pattern F

    def shift(self, flipped: bool, spin: int, angle_deg: float) -> None:
        if angle_deg:
            self.linear[spin] = self.linear.get(spin, 0.0) + (-angle_deg if flipped else angle_deg)

    @property
    def empty(self) -> bool:
        return not self.delays and not any(self.linear.values())


def _bookkeeping(seq: PulseSequence, bits: list[int]) -> tuple[list[list], int, int]:
    """Steps [run or None if empty, spin, 2x2 matrix], the flips F and the quarter turns of phase.

    Each step is a run and the other pulse that ends it, conjugated by its
    spin's flip when F holds it; the last step has no pulse. A pulse on the
    same spin as the step before, after an empty run, is multiplied into
    that step's matrix: a flip between them is only counted in F.
    """
    index = {label: spin for spin, label in enumerate(seq.system.labels)}
    matrices: dict[tuple[float, float], tuple] = {}  # per (angle, phase)
    steps: list[list] = []
    mask = quarter_turns = 0
    run = _Run()
    for event in seq.events:
        if isinstance(event, Delay):
            if event.duration_s:
                run.delays[mask] = run.delays.get(mask, 0.0) + event.duration_s
        elif isinstance(event, FrameShift):
            spin = index[event.spin]
            run.shift(bool(mask & bits[spin]), spin, event.angle_deg)
        elif event.angle_deg % 360.0 == 180.0:
            spin = index[event.spin]
            mask ^= bits[spin]
            run.shift(bool(mask & bits[spin]), spin, 2.0 * event.phase_deg)
            quarter_turns += 3 if event.angle_deg % 720.0 == 180.0 else 1
        else:
            key = (event.angle_deg, event.phase_deg)
            if key not in matrices:
                matrices[key] = _single_spin_matrix(event)
            (a, b), (c, d) = matrices[key]
            spin = index[event.spin]
            if mask & bits[spin]:  # X P X, since the block is X_F out
                a, b, c, d = d, c, b, a
            empty = run.empty
            if empty and steps and steps[-1][1] == spin:
                (e, f), (g, h) = steps[-1][2]
                steps[-1][2] = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
            else:
                steps.append([None if empty else run, spin, ((a, b), (c, d))])
            run = _Run()
    steps.append([None if run.empty else run, None, None])
    return steps, mask, quarter_turns


@functools.cache
def _layout(n: int) -> tuple[list[int], list[np.ndarray]]:
    """Each spin's basis bit (`spin_bit`), and the Iz columns of the high and low halves."""
    bits = [spin_bit(n, spin) for spin in range(n)]
    halves = [np.array([iz_diag(m, spin) for spin in range(m)]).reshape(m, 1 << m).T for m in (n // 2, n - n // 2)]
    return bits, halves


def _run_diagonals(runs: list[_Run], bits: list[int], coupling: np.ndarray, halves: list[np.ndarray]) -> np.ndarray:
    """The runs' diagonals D, one row of 2**n entries each.

    The angle of D is L.z + z.Q z over the basis, with Q = coupling * K
    upper triangular. With the spins split into a high half (Iz columns
    `zh`, 2**h rows) and a low half (`zl`), a basis index is a pair (high,
    low), and the angle is the high half's own form plus the low half's
    plus the cross term zh Q_hl zl^T: one (2**h, h) by (h, 2**m) product
    per run. Every run's delay entries are padded to the most any run has,
    at most 2**n sign patterns, so a chunk's padding is bounded too.
    """
    zh, zl = halves
    h, n = zh.shape[1], len(bits)
    width = max(len(run.delays) for run in runs)
    linear = np.zeros((len(runs), n))
    masks, seconds = [], []
    for r, run in enumerate(runs):
        for spin, angle_deg in run.linear.items():
            linear[r, spin] = angle_deg
        padding = [0] * (width - len(run.delays))
        masks += [*run.delays, *padding]
        seconds += [*run.delays.values(), *padding]
    linear = np.radians(linear)
    shape = (len(runs), width, 1)
    signs = np.where(np.array(masks, dtype=np.int64).reshape(shape) & np.array(bits, dtype=np.int64), -1.0, 1.0)
    pairs = signs.transpose(0, 2, 1) @ (np.array(seconds).reshape(shape) * signs) * coupling
    high = ((zh @ pairs[:, :h, :h] + linear[:, None, :h]) * zh).sum(axis=2)
    low = ((zl @ pairs[:, h:, h:] + linear[:, None, h:]) * zl).sum(axis=2)
    angle = zh @ (pairs[:, :h, h:] @ zl.T) + high[:, :, None] + low[:, None, :]
    diagonal = angle.reshape(len(runs), -1) * -1.0j
    return np.exp(diagonal, out=diagonal)


def propagate(seq: PulseSequence, vecs: np.ndarray) -> np.ndarray:
    """Apply the sequence's events, first to last, to a (2**n, k) block of columns.

    The three passes of the module docstring: `_bookkeeping`, then, a chunk
    of about 2**14 diagonal entries at a time, `_run_diagonals` and one
    diagonal multiply (none for an empty run) and one 2x2 product on the
    pulse's spin axis (`spin_axis`) per step. The counted flips are one
    gather at the end, and the phases one product.
    """
    n = seq.system.n
    dim = 1 << n
    out = np.array(vecs, dtype=complex)  # a copy: the diagonals multiply it in place
    if out.ndim != 2 or out.shape[0] != dim:
        raise ValueError(f"expected a ({dim}, k) block of vectors, got shape {out.shape}")
    bits, halves = _layout(n)
    steps, mask, quarter_turns = _bookkeeping(seq, bits)
    coupling = 2.0 * np.pi * np.triu(seq.system.j_hz, 1)
    per_chunk = max(1, _CHUNK_ENTRIES >> n)
    for start in range(0, len(steps), per_chunk):
        chunk = steps[start : start + per_chunk]
        runs = [run for run, _, _ in chunk if run is not None]
        diagonals = iter(_run_diagonals(runs, bits, coupling, halves) if runs else ())
        for run, spin, matrix in chunk:
            if run is not None:
                out *= next(diagonals)[:, None]
            if matrix is not None:
                out = (np.array(matrix) @ spin_axis(out, spin)).reshape(out.shape)
    if mask:
        out = out[np.arange(dim) ^ mask]
    if quarter_turns % 4:
        out *= (1.0, 1.0j, -1.0, -1.0j)[quarter_turns % 4]
    return out


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
    # The probes, their propagated copy and one step's result are three (2**n, 4)
    # complex blocks, plus one chunk of diagonals: about 200 MiB at 20 spins.
    check_capacity(n, limit=capacity_limit(MAX_VERIFY_SPINS), kind="verification")
    dim = 1 << n
    perm = as_permutation(perm, dim)
    rng = np.random.default_rng(PROBE_SEED)
    probes = np.empty((dim, 2 * PROBE_COUNT), dtype=complex)
    w = probes[:, :PROBE_COUNT]
    w.real = rng.standard_normal((dim, PROBE_COUNT))
    w.imag = rng.standard_normal((dim, PROBE_COUNT))
    lam = np.exp(2.0j * np.pi * rng.random(dim))
    probes[:, PROBE_COUNT:] = lam[perm][:, None] * w
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
