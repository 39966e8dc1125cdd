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

Every lowered fragment equals a diagonal unitary times the gate's
permutation matrix, so compiled circuits reproduce the logical circuit
exactly on populations and match its magnitude pattern entrywise.
"""
from __future__ import annotations

from dataclasses import dataclass

from .gates import PERMUTATION_KINDS, ROTATION_KINDS, Gate, lower_fredkin
from .pulses import Delay, DurationModel, Event, FrameShift, PulseSequence, SelectivePulse
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


def _delay_angle_deg(theta_deg: float, j_hz: float) -> float:
    """The representative of theta mod 360 whose sign opposes the coupling."""
    turns = theta_deg % 360.0
    if turns == 0.0:
        return 0.0
    return turns if j_hz < 0.0 else turns - 360.0


def _refocused_delay(
    system: SpinSystem, echo: list[SelectivePulse], active: tuple[int, int], duration_s: float
) -> list[Event]:
    """Free evolution under one coupling with every other coupling echoed away.

    The delay is cut into 2**k equal slices and each coupled spectator is
    flipped by 180-degree pulses following its own nonconstant Walsh sign
    pattern. Distinct Walsh rows are orthogonal to each other and to the
    constant row carried by the active pair, so every coupling involving a
    spectator averages to zero over the slices while the active coupling
    evolves for the full duration. One spectator reduces to the familiar
    two-pulse echo. `echo[u]` is spin u's 180-degree pulse (`_echo_pulses`).
    """
    spectators = [
        u
        for u in range(system.n)
        if u not in active and any(system.j_hz[u][v] != 0.0 for v in range(system.n))
    ]
    if not spectators:
        return [Delay(duration_s=duration_s)]
    rows = {u: r + 1 for r, u in enumerate(spectators)}
    slices = 1 << len(spectators).bit_length()  # smallest power of two > len

    def walsh(row: int, col: int) -> int:
        return -1 if (row & col).bit_count() % 2 else 1

    events: list[Event] = [Delay(duration_s=duration_s / slices)]
    for boundary in range(1, slices + 1):
        for u in spectators:
            before = walsh(rows[u], boundary - 1)
            after = walsh(rows[u], boundary) if boundary < slices else 1
            if before != after:
                events.append(echo[u])
        if boundary < slices:
            events.append(Delay(duration_s=duration_s / slices))
    return events


def _pulse(model: DurationModel, spin: str, phase_deg: float, angle_deg: float) -> SelectivePulse:
    return SelectivePulse(
        spin=spin, phase_deg=phase_deg, angle_deg=angle_deg, duration_s=model.pulse_s(angle_deg)
    )


def _echo_pulses(system: SpinSystem, model: DurationModel) -> list[SelectivePulse]:
    """Each spin's 180-degree x pulse, by spin index, built once per lowering."""
    return [_pulse(model, label, 0.0, 180.0) for label in system.labels]


def _controlled_rz(
    system: SpinSystem, echo: list[SelectivePulse], control: int, target: int, theta_deg: float
) -> list[Event]:
    j_hz = _require_coupling(system, control, target)
    s, t = system.labels[control], system.labels[target]
    chi = _delay_angle_deg(theta_deg, j_hz)
    events: list[Event] = []
    if chi != 0.0:
        tau = (abs(chi) / 360.0) / abs(j_hz)
        events.extend(_refocused_delay(system, echo, (control, target), tau))
        events.append(FrameShift(spin=t, angle_deg=chi / 2.0))
    if chi != theta_deg:
        events.append(FrameShift(spin=s, angle_deg=(chi - theta_deg) / 2.0))
    return events


def _controlled_ry(
    system: SpinSystem, model: DurationModel, echo: list[SelectivePulse], control: int,
    target: int, theta_deg: float,
) -> list[Event]:
    j_hz = _require_coupling(system, control, target)
    t = system.labels[target]
    if abs(_delay_angle_deg(-theta_deg, j_hz)) < abs(_delay_angle_deg(theta_deg, j_hz)):
        head, inner_theta, tail = -90.0, -theta_deg, 90.0
    else:
        head, inner_theta, tail = 90.0, theta_deg, -90.0
    return [
        _pulse(model, t, 0.0, head),
        *_controlled_rz(system, echo, control, target, inner_theta),
        _pulse(model, t, 0.0, tail),
    ]


def lower_cnot(
    system: SpinSystem, model: DurationModel, control: int, target: int
) -> list[Event]:
    """CNOT as y-pulse-conjugated CRz(180) plus a control frame shift."""
    return _cnot(system, model, _echo_pulses(system, model), control, target)


def _cnot(
    system: SpinSystem, model: DurationModel, echo: list[SelectivePulse], control: int, target: int
) -> list[Event]:
    s, t = system.labels[control], system.labels[target]
    return [
        _pulse(model, t, 90.0, -90.0),
        *_controlled_rz(system, echo, control, target, 180.0),
        FrameShift(spin=s, angle_deg=90.0),
        _pulse(model, t, 90.0, 90.0),
    ]


def lower_toffoli_phase(
    system: SpinSystem, model: DurationModel, c1: int, c2: int, target: int
) -> list[Event]:
    """Doubly controlled NOT, correct up to phases.

    A controlled y rotation through +90 from the second control, a
    controlled z rotation through 180 from the first, and the inverse y
    rotation. Its coupled-evolution budget is 1/J for a uniform coupling,
    against 7/(4J) for the textbook construction.
    """
    return _toffoli(system, model, _echo_pulses(system, model), c1, c2, target)


def _toffoli(
    system: SpinSystem, model: DurationModel, echo: list[SelectivePulse], c1: int, c2: int, t: int
) -> list[Event]:
    return [
        *_controlled_ry(system, model, echo, c2, t, 90.0),
        *_controlled_rz(system, echo, c1, t, 180.0),
        *_controlled_ry(system, model, echo, c2, t, -90.0),
    ]


def _rz_as_pulses(model: DurationModel, spin: str, theta_deg: float) -> list[Event]:
    """Rz from real pulses: x rotation conjugated by y rotations."""
    return [
        _pulse(model, spin, 90.0, 90.0),
        _pulse(model, spin, 0.0, theta_deg),
        _pulse(model, spin, 90.0, -90.0),
    ]


def _lower_gate(
    gate: Gate, system: SpinSystem, model: DurationModel, echo: list[SelectivePulse]
) -> list[Event]:
    kind = gate.kind
    if kind == "NOT":
        return [echo[gate.spins[0]]]
    if kind == "CNOT":
        return _cnot(system, model, echo, *gate.spins)
    if kind == "TOFFOLI":
        return _toffoli(system, model, echo, *gate.spins)
    if kind == "FREDKIN":
        events: list[Event] = []
        for part in lower_fredkin(gate):
            events.extend(_lower_gate(part, system, model, echo))
        return events
    if kind == "RX":
        return [_pulse(model, system.labels[gate.spins[0]], 0.0, gate.angle_deg)]
    if kind == "RY":
        return [_pulse(model, system.labels[gate.spins[0]], 90.0, gate.angle_deg)]
    if kind == "RZ":
        return [FrameShift(spin=system.labels[gate.spins[0]], angle_deg=gate.angle_deg)]
    if kind == "CRY":
        return _controlled_ry(system, model, echo, *gate.spins, gate.angle_deg)
    if kind == "CRZ":
        return _controlled_rz(system, echo, *gate.spins, gate.angle_deg)
    raise ValueError(f"no lowering for gate kind {kind!r}")


def elide_z_rotations(seq: PulseSequence) -> PulseSequence:
    """Absorb frame shifts into the phases of later pulses on the same spin.

    The net outstanding shift per spin is re-emitted at the tail (still
    zero duration), so the sequence's unitary is unchanged exactly, and
    frame_out() on the result reports the terminal reference frame.
    """
    acc = {lab: 0.0 for lab in seq.system.labels}
    events: list[Event] = []
    for event in seq.events:
        if isinstance(event, FrameShift):
            acc[event.spin] += event.angle_deg
        elif isinstance(event, SelectivePulse) and acc[event.spin] != 0.0:
            events.append(
                SelectivePulse(
                    spin=event.spin,
                    phase_deg=event.phase_deg - acc[event.spin],
                    angle_deg=event.angle_deg,
                    duration_s=event.duration_s,
                )
            )
        else:
            events.append(event)
    for lab in seq.system.labels:
        if acc[lab] != 0.0:
            events.append(FrameShift(spin=lab, angle_deg=acc[lab]))
    return PulseSequence(system=seq.system, events=events)


def compile_circuit(
    circuit: CircuitIR,
    system: SpinSystem,
    model: DurationModel | None = None,
    *,
    z_mode: str = "virtual",
    elide: bool = True,
    bloch_siegert_deg: float = 0.0,
) -> PulseSequence:
    """Lower a circuit to a pulse sequence for the given spin system.

    z_mode "virtual" keeps z rotations as zero-duration frame shifts;
    "pulsed" realizes each one as three real pulses. `bloch_siegert_deg`,
    when nonzero, adds that frame shift to every non-selected spin after
    each pulse, an abstract stand-in for off-resonance phase corrections.
    With `elide` the frame shifts are folded into later pulse phases. The
    pipeline is deterministic: equal inputs give identical sequences.
    """
    if z_mode not in {"virtual", "pulsed"}:
        raise ValueError(f"z_mode must be virtual or pulsed, got {z_mode!r}")
    if circuit.n != system.n:
        raise ValueError(f"circuit is for {circuit.n} spins, system has {system.n}")
    model = model or DurationModel()

    echo = _echo_pulses(system, model)
    events: list[Event] = []
    for gate in circuit.gates:
        events.extend(_lower_gate(gate, system, model, echo))

    if z_mode == "pulsed":
        realized: list[Event] = []
        for event in events:
            if isinstance(event, FrameShift):
                realized.extend(_rz_as_pulses(model, event.spin, event.angle_deg))
            else:
                realized.append(event)
        events = realized

    if bloch_siegert_deg != 0.0:
        shifted: list[Event] = []
        for event in events:
            shifted.append(event)
            if isinstance(event, SelectivePulse):
                shifted.extend(
                    FrameShift(spin=lab, angle_deg=bloch_siegert_deg)
                    for lab in system.labels
                    if lab != event.spin
                )
        events = shifted

    seq = PulseSequence(system=system, events=events)
    return elide_z_rotations(seq) if elide else seq
