"""Lowering of logic circuits to selective-pulse sequences.

Conventions, fixed once and used everywhere:

* Rz(theta) means exp(-i*theta*Iz); a FrameShift event realizes it at zero
  cost. A z rotation commuted forward through a pulse on the same spin
  lowers that pulse's phase by the shift angle.
* A controlled z rotation CRz(theta) from spin s to spin t is one free
  ZZ-evolution delay plus frame shifts on t and s. The delay angle chi is
  congruent to theta modulo 360 with its sign opposite the coupling's, so
  the delay time (|chi|/360)/|J| is always nonnegative and never longer
  than one coupling period.
* A controlled y rotation conjugates a CRz by x pulses on the target; of
  the two symmetric conjugations the one with the shorter inner delay is
  emitted.
* CNOT conjugates CRz(180) by y pulses on the target, the doubly
  controlled NOT is the three-fragment phase construction, and Fredkin is
  expanded through its CNOT and doubly-controlled-NOT factorization.

Lowering is one pass over the gates that appends events to one list.
Every z rotation in virtual mode, and every Bloch-Siegert compensation in
either mode, is carried forward as a per-spin frame angle: each later
pulse on the spin is emitted with its phase lowered by it, and what
remains at the end becomes one tail frame shift per spin, so frame_out()
reports the terminal frame.

Every lowered fragment equals a diagonal unitary times the gate's
permutation matrix, so compiled circuits reproduce the logical circuit
exactly on populations and match its magnitude pattern entrywise.
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .gates import PERMUTATION_KINDS, ROTATION_KINDS, Gate, lower_fredkin
from .pulses import Delay, DurationModel, Event, FrameShift, PulseSequence, SelectivePulse, coupled_delay_s
from .states import as_finite
from .system import SpinSystem


@dataclass
class CircuitIR:
    """A gate list addressed by spin index against a system of n spins."""

    n: int
    gates: list[Gate]

    def __post_init__(self):
        for gate in self.gates:
            bad = [s for s in gate.spins if not 0 <= s < self.n]
            if bad:
                raise ValueError(f"gate {gate.kind} addresses spins {bad} outside 0..{self.n - 1}")


def parse_circuit(text: str, system: SpinSystem) -> CircuitIR:
    """Read one gate per line, e.g. ``CNOT b c``, ``NOT c``, ``RY b 90``.

    Operands are spin labels in the order the gate type expects (controls
    first); rotation gates take a trailing angle in degrees. Blank lines
    and ``#`` comments are skipped.
    """
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *operands = line.split()
        kind = kind.upper()
        if kind in ROTATION_KINDS:
            if len(operands) < 2:
                raise ValueError(f"line {lineno}: {kind} needs spin operands and an angle")
            *spin_ops, angle_text = operands
            angle = float(angle_text)
        elif kind in PERMUTATION_KINDS:
            spin_ops, angle = operands, None
        else:
            raise ValueError(f"line {lineno}: unknown gate kind {kind!r}")
        spins = tuple(system.spin_index(lab) for lab in spin_ops)
        gates.append(Gate(kind, spins, angle))
    return CircuitIR(n=system.n, gates=gates)


def format_circuit(circuit: CircuitIR, system: SpinSystem) -> str:
    """Inverse of parse_circuit, one gate per line."""
    lines = []
    for gate in circuit.gates:
        parts = [gate.kind, *(system.labels[s] for s in gate.spins)]
        if gate.angle_deg is not None:
            parts.append(f"{gate.angle_deg:g}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def _require_coupling(system: SpinSystem, i: int, j: int) -> float:
    j_hz = system.coupling(i, j)
    if j_hz == 0.0:
        raise ValueError(
            f"spins {system.labels[i]!r} and {system.labels[j]!r} are uncoupled;"
            " this lowering needs a nonzero J"
        )
    return j_hz


def _check_couplings(system: SpinSystem) -> None:
    """Refuse a coupling whose delay or phase rate overflows a float.

    A controlled rotation waits up to 1/|J|, and the propagator turns a
    coupled pair at 2 pi J radians per second: both must be finite.
    """
    j_hz = np.abs(system.j_hz[system.j_hz != 0.0])
    if j_hz.size and math.inf in (1.0 / float(j_hz.min()), 2.0 * math.pi * float(j_hz.max())):
        raise ValueError("j_hz must hold couplings whose 1/|J| and 2 pi |J| are finite, to compile")


def _delay_angle_deg(theta_deg: float, j_hz: float) -> float:
    """The representative of theta mod 360 whose sign opposes the coupling."""
    turns = theta_deg % 360.0
    if turns == 0.0:
        return 0.0
    return turns if j_hz < 0.0 else turns - 360.0


# A pulse's key in `_Lowering.pulses`: its spin and the exact bits of its
# phase and angle, since a float key would take -0.0 for 0.0.
_PULSE_KEY = struct.Struct("<qdd").pack


@functools.cache
def _echo_schedule(count: int) -> tuple[tuple[int, ...], ...]:
    """The spectators that flip at the end of each slice of a delay echoed for `count` of them.

    The delay is cut into 2**k slices, the smallest power of two above
    `count`. Spectator r follows Walsh row r + 1, whose sign over slice c is
    (-1)**popcount((r + 1) & c), and flips wherever that sign changes, last
    back to +1 after the final slice.
    """
    slices = 1 << count.bit_length()
    rows = [[-1 if ((r + 1) & col).bit_count() % 2 else 1 for col in range(slices)] + [1] for r in range(count)]
    return tuple(tuple(r for r in range(count) if rows[r][col] != rows[r][col + 1]) for col in range(slices))


class _Lowering:
    """One lowering pass: gates in, events appended to one list.

    `frame[s]` is spin s's outstanding z rotation in degrees, summed in
    event order and folded into later pulse phases as described above.
    Events are frozen, so each distinct pulse is built, and validated, once
    per lowering and shared by every place it is emitted.
    """

    def __init__(
        self, system: SpinSystem, model: DurationModel, *, pulsed: bool = False,
        bloch_siegert_deg: float = 0.0,
    ):
        self.system, self.model = system, model
        self.pulsed, self.bloch_siegert_deg = pulsed, bloch_siegert_deg
        self.pulses: dict[bytes, SelectivePulse] = {}
        # Each spin's 180-degree x pulse, emitted by every echo and NOT gate.
        self.echo = [self.selective(spin, 0.0, 180.0) for spin in range(system.n)]
        self.coupled = (system.j_hz != 0.0).any(axis=1).tolist()
        self.frame = [0.0] * system.n
        self.events: list[Event] = []

    def selective(self, spin: int, phase_deg: float, angle_deg: float) -> SelectivePulse:
        """The pulse on `spin` with this exact phase and angle, built on first use."""
        key = _PULSE_KEY(spin, phase_deg, angle_deg)
        pulse = self.pulses.get(key)
        if pulse is None:
            label = self.system.labels[spin]
            pulse = self.pulses[key] = SelectivePulse(label, phase_deg, angle_deg, self.model.pulse_s(angle_deg))
        return pulse

    def emit(self, spin: int, pulse: SelectivePulse) -> None:
        """Append a pulse on `spin`; with a Bloch-Siegert angle, shift every other spin."""
        if self.frame[spin] != 0.0:
            pulse = self.selective(spin, pulse.phase_deg - self.frame[spin], pulse.angle_deg)
        self.events.append(pulse)
        if self.bloch_siegert_deg != 0.0:
            for u in range(self.system.n):
                if u != spin:
                    self.frame[u] += self.bloch_siegert_deg
            if math.inf in map(abs, self.frame):
                raise ValueError("bloch_siegert_deg must keep every spin's z frame finite, to compile")

    def pulse(self, spin: int, phase_deg: float, angle_deg: float) -> None:
        self.emit(spin, self.selective(spin, phase_deg, angle_deg))

    def rz(self, spin: int, theta_deg: float) -> None:
        """A frame shift, or in pulsed mode an x rotation conjugated by y rotations."""
        if self.pulsed:
            self.pulse(spin, 90.0, 90.0)
            self.pulse(spin, 0.0, theta_deg)
            self.pulse(spin, 90.0, -90.0)
        else:
            self.frame[spin] += theta_deg
            if math.isinf(self.frame[spin]):
                label = self.system.labels[spin]
                raise ValueError(f"RZ angles must keep spin {label}'s z frame finite, to compile")

    def delay(self, active: tuple[int, int], duration_s: float) -> None:
        """Free evolution under one coupling with every other coupling echoed away.

        The delay is cut into 2**k equal slices and each coupled spectator is
        flipped by 180-degree pulses following its own nonconstant Walsh sign
        pattern (`_echo_schedule`, cached per spectator count). Distinct Walsh
        rows are orthogonal to each other and to the constant row carried by
        the active pair, so every coupling involving a spectator averages to
        zero over the slices while the active coupling evolves for the full
        duration. One spectator reduces to the familiar two-pulse echo.
        """
        spectators = [u for u in range(self.system.n) if u not in active and self.coupled[u]]
        if not spectators:
            self.events.append(Delay(duration_s=duration_s))
            return
        schedule = _echo_schedule(len(spectators))
        piece = Delay(duration_s=duration_s / len(schedule))
        for flips in schedule:
            self.events.append(piece)
            for r in flips:
                self.emit(spectators[r], self.echo[spectators[r]])

    def controlled_rz(self, control: int, target: int, theta_deg: float) -> None:
        j_hz = _require_coupling(self.system, control, target)
        chi = _delay_angle_deg(theta_deg, j_hz)
        if chi != 0.0:
            self.delay((control, target), coupled_delay_s(j_hz, abs(chi) / 360.0))
            self.rz(target, chi / 2.0)
        if chi != theta_deg:
            self.rz(control, (chi - theta_deg) / 2.0)

    def controlled_ry(self, control: int, target: int, theta_deg: float) -> None:
        j_hz = _require_coupling(self.system, control, target)
        if abs(_delay_angle_deg(-theta_deg, j_hz)) < abs(_delay_angle_deg(theta_deg, j_hz)):
            head, inner_theta, tail = -90.0, -theta_deg, 90.0
        else:
            head, inner_theta, tail = 90.0, theta_deg, -90.0
        self.pulse(target, 0.0, head)
        self.controlled_rz(control, target, inner_theta)
        self.pulse(target, 0.0, tail)

    def gate(self, gate: Gate) -> None:
        kind, spins = gate.kind, gate.spins
        if kind == "NOT":
            self.emit(spins[0], self.echo[spins[0]])
        elif kind == "CNOT":  # y-pulse-conjugated CRz(180) plus a control frame shift
            control, target = spins
            self.pulse(target, 90.0, -90.0)
            self.controlled_rz(control, target, 180.0)
            self.rz(control, 90.0)
            self.pulse(target, 90.0, 90.0)
        elif kind == "TOFFOLI":
            c1, c2, target = spins
            self.controlled_ry(c2, target, 90.0)
            self.controlled_rz(c1, target, 180.0)
            self.controlled_ry(c2, target, -90.0)
        elif kind == "FREDKIN":
            for part in lower_fredkin(gate):
                self.gate(part)
        elif kind == "RX":
            self.pulse(spins[0], 0.0, gate.angle_deg)
        elif kind == "RY":
            self.pulse(spins[0], 90.0, gate.angle_deg)
        elif kind == "RZ":
            self.rz(spins[0], gate.angle_deg)
        elif kind == "CRY":
            self.controlled_ry(*spins, gate.angle_deg)
        elif kind == "CRZ":
            self.controlled_rz(*spins, gate.angle_deg)
        else:
            raise ValueError(f"no lowering for gate kind {kind!r}")

    def finish(self) -> PulseSequence:
        """The sequence so far, each spin's nonzero frame appended in label order."""
        for lab, angle in zip(self.system.labels, self.frame):
            if angle != 0.0:
                self.events.append(FrameShift(spin=lab, angle_deg=angle))
        return PulseSequence(system=self.system, events=self.events)


def lower_toffoli_phase(
    system: SpinSystem, model: DurationModel, c1: int, c2: int, target: int
) -> list[Event]:
    """Doubly controlled NOT, correct up to phases.

    A controlled y rotation through +90 from the second control, a
    controlled z rotation through 180 from the first, and the inverse y
    rotation. Its coupled-evolution budget is 1/J for a uniform coupling,
    against 7/(4J) for the textbook construction.
    """
    return list(compile_circuit(CircuitIR(system.n, [Gate("TOFFOLI", (c1, c2, target))]), system, model).events)


def compile_circuit(
    circuit: CircuitIR,
    system: SpinSystem,
    model: DurationModel | None = None,
    *,
    z_mode: str = "virtual",
    bloch_siegert_deg: float = 0.0,
) -> PulseSequence:
    """Lower a circuit to a pulse sequence for the given spin system, in one pass.

    z_mode "virtual" folds each z rotation into the phases of the later
    pulses on its spin and ends the sequence with at most one frame shift
    per spin; "pulsed" realizes each one as three real pulses.
    `bloch_siegert_deg`, when nonzero, adds that z rotation to every
    non-selected spin after each pulse, an abstract stand-in for
    off-resonance phase corrections; it is folded the same way in both
    modes. Equal inputs give identical sequences.
    """
    if z_mode not in {"virtual", "pulsed"}:
        raise ValueError(f"z_mode must be virtual or pulsed, got {z_mode!r}")
    bloch_siegert_deg = as_finite("bloch_siegert_deg", bloch_siegert_deg)
    if circuit.n != system.n:
        raise ValueError(f"circuit is for {circuit.n} spins, system has {system.n}")
    _check_couplings(system)
    lowering = _Lowering(
        system, model or DurationModel(), pulsed=z_mode == "pulsed",
        bloch_siegert_deg=bloch_siegert_deg,
    )
    for gate in circuit.gates:
        lowering.gate(gate)
    seq = lowering.finish()
    if not math.isfinite(seq.total_duration_s):  # every event is finite, but not their sum
        field = "pulse90_s" if math.isfinite(seq.coupling_duration_s()) else "j_hz"
        raise ValueError(f"{field} must keep the sequence's total duration finite, to compile")
    # The propagator turns each pair by 2 pi J over the summed delays: the
    # angle of any basis state is at most that time the sum of every |J|.
    delays_s = seq.coupling_duration_s()
    with np.errstate(over="ignore"):
        rate = 2.0 * math.pi * float(np.abs(np.triu(system.j_hz, 1)).sum())
    if delays_s and not math.isfinite(delays_s * rate):
        raise ValueError("j_hz must keep every coupling's phase over the sequence's delays finite, to compile")
    return seq
