"""Circuit text format, pulse-level lowering, and the sequence propagator."""
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import coolspin as cs
from coolspin.compiler import _echo_schedule, format_circuit, parse_circuit
from coolspin.propagator import propagate
from coolspin.states import CAPACITY_ENV_VAR
from coolspin.pulses import (
    Delay,
    DurationModel,
    FrameShift,
    PulseSequence,
    SelectivePulse,
    coupled_delay_s,
    event_from_dict,
    event_to_dict,
    standard_toffoli_s,
)

import oracles


@pytest.fixture()
def system():
    return cs.example_system()


def unitary_of(circuit, system, **kwargs):
    seq = cs.compile_circuit(circuit, system, **kwargs)
    return cs.simulate_sequence(seq)


def assert_equal_up_to_global_phase(u, v, tol=1e-12):
    dim = u.shape[0]
    c = np.trace(v.conj().T @ u) / dim
    assert abs(abs(c) - 1.0) < tol
    assert np.abs(u - c * v).max() < tol


# --- events and duration model ------------------------------------------------


def test_event_validation_and_round_trip():
    with pytest.raises(ValueError):
        SelectivePulse(spin="a", phase_deg=0.0, angle_deg=90.0, duration_s=-1.0)
    with pytest.raises(ValueError):
        Delay(duration_s=-1e-9)
    assert FrameShift(spin="a", angle_deg=90.0).duration_s == 0.0
    for event in (
        SelectivePulse(spin="a", phase_deg=45.0, angle_deg=180.0, duration_s=4e-3),
        Delay(duration_s=1e-3),
        FrameShift(spin="b", angle_deg=-90.0),
    ):
        assert event_from_dict(event_to_dict(event)) == event
    with pytest.raises(ValueError, match="unknown event kind"):
        event_from_dict({"event": "teleport"})


NAN, INF = float("nan"), float("inf")


def two_spins(j_hz, shift_ppm=0.0):
    return cs.SpinSystem(["s", "t"], [[0.0, j_hz], [j_hz, 0.0]], [shift_ppm, 1.0], 1e-4)


def compile_nothing(**options):
    # An empty circuit emits no event, so only an up-front check can reject an option.
    return cs.compile_circuit(cs.CircuitIR(2, []), two_spins(5.0), **options)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SelectivePulse("a", NAN, 90.0, 2e-3), "phase_deg"),
        (lambda: SelectivePulse("a", 0.0, INF, 2e-3), "angle_deg"),
        (lambda: SelectivePulse("a", 0.0, 90.0, NAN), "duration_s"),
        (lambda: Delay(duration_s=NAN), "duration_s"),
        (lambda: Delay(duration_s=INF), "duration_s"),
        (lambda: FrameShift(spin="a", angle_deg=-INF), "angle_deg"),
        (lambda: DurationModel(pulse90_s=NAN), "pulse90_s"),
        (lambda: DurationModel(pulse90_s=INF), "pulse90_s"),
        (lambda: event_from_dict({"event": "delay", "duration_s": "nan"}), "duration_s"),
        (lambda: event_from_dict({"event": "delay", "duration_s": True}), "duration_s"),
        (
            lambda: event_from_dict({"event": "frame_shift", "spin": 1, "angle_deg": 90.0}),
            "spin labels must be strings, got 1",
        ),
        (
            lambda: event_from_dict({"event": "frame_shift", "spin": "a", "angle_deg": "90"}),
            "angle_deg must be a number, got '90'",
        ),
        (lambda: cs.PopulationState(n=1, pops=[NAN, NAN]), "populations"),
        (lambda: cs.PopulationState(n=1, pops=[INF, 0.0]), "populations"),
        (lambda: cs.Unitary(n=1, mat=np.full((2, 2), NAN)), "not unitary"),
        (lambda: two_spins(NAN), "j_hz"),
        (lambda: two_spins(INF), "j_hz"),
        (lambda: two_spins(-INF), "j_hz"),
        (lambda: two_spins(5.0, shift_ppm=NAN), "shift_ppm"),
        (lambda: compile_nothing(bloch_siegert_deg=NAN), "bloch_siegert_deg"),
        (lambda: compile_nothing(bloch_siegert_deg=-INF), "bloch_siegert_deg"),
    ],
)
def test_non_finite_values_are_rejected_naming_the_field(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_duration_model_and_delay_helpers():
    model = DurationModel()
    assert model.pulse_s(90.0) == 2e-3
    assert model.pulse_s(-180.0) == 4e-3
    with pytest.raises(ValueError):
        DurationModel(pulse90_s=0.0)
    assert coupled_delay_s(53.8, 0.5) == 0.5 / 53.8
    assert coupled_delay_s(-53.8, 0.5) == 0.5 / 53.8
    with pytest.raises(ValueError):
        coupled_delay_s(0.0, 0.5)
    with pytest.raises(ValueError):
        coupled_delay_s(53.8, -1.0)
    assert standard_toffoli_s(64.0) == 7.0 / 256.0


def test_pulse_sequence_validates_labels_and_serializes(system):
    with pytest.raises(ValueError):
        PulseSequence(system, [FrameShift(spin="q", angle_deg=90.0)])
    seq = PulseSequence(
        system,
        [
            SelectivePulse(spin="a", phase_deg=0.0, angle_deg=90.0, duration_s=2e-3),
            Delay(duration_s=1e-3),
            FrameShift(spin="b", angle_deg=30.0),
        ],
    )
    assert seq.total_duration_s == pytest.approx(3e-3)
    assert seq.coupling_duration_s() == pytest.approx(1e-3)
    assert seq.pulse_count() == 1
    assert seq.frame_out() == {"a": 0.0, "b": 30.0, "c": 0.0}

    text = seq.to_json()
    again = PulseSequence.from_json(text)
    assert again.events == seq.events
    assert again.to_json() == text
    assert json.loads(text)["events"][0]["event"] == "pulse"


def test_a_sequence_cannot_be_edited_under_its_sums(system):
    seq = PulseSequence(system, [Delay(duration_s=1e-3)])
    with pytest.raises(AttributeError):
        seq.events.append(Delay(duration_s=1.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        seq.events = [Delay(duration_s=1.0)]
    # An edit builds a new sequence, whose sums are its own and survive JSON.
    edited = PulseSequence(system, [*seq.events, Delay(duration_s=1.0), SelectivePulse("a", 0.0, 90.0, 2e-3)])
    again = PulseSequence.from_json(edited.to_json())
    assert again.events == edited.events and again.to_json() == edited.to_json()
    assert (again.pulse_count(), again.total_duration_s, again.coupling_duration_s()) == (1, 1e-3 + 1.0 + 2e-3, 1e-3 + 1.0)


# --- circuit text format -------------------------------------------------------


def test_circuit_text_round_trip(system):
    circuit = cs.CircuitIR(3, cs.boost_circuit())
    text = format_circuit(circuit, system)
    assert text == "CNOT b c\nNOT c\nCNOT b a\nTOFFOLI a c b\nCNOT b a\n"
    assert parse_circuit(text, system).gates == circuit.gates


def test_parse_circuit_accepts_comments_and_rotations(system):
    circuit = parse_circuit("# flip then tilt\nnot a\nRY b 45.5\n", system)
    assert circuit.gates == [
        cs.Gate("NOT", (0,)),
        cs.Gate("RY", (1,), angle_deg=45.5),
    ]


def test_parse_circuit_rejects_garbage(system):
    with pytest.raises(ValueError):
        parse_circuit("CNOT a q\n", system)
    with pytest.raises(ValueError):
        parse_circuit("BLORP a\n", system)
    with pytest.raises(ValueError):
        parse_circuit("RY a not-a-number\n", system)
    with pytest.raises(ValueError):
        parse_circuit("CNOT a\n", system)


# --- lowering correctness -------------------------------------------------------


def test_lowered_cnot_is_cnot_up_to_global_phase(system):
    circuit = cs.CircuitIR(3, [cs.Gate("CNOT", (1, 2))])
    got = unitary_of(circuit, system)
    want = cs.permutation_unitary(cs.circuit_permutation(circuit.gates, 3))
    assert cs.phase_pattern_equal(got, want)
    # Populations move exactly like the logical gate.
    probs = np.linspace(0.0, 1.0, 8)
    moved = (np.abs(got.mat) ** 2) @ probs
    assert np.allclose(moved, cs.permute_vector(probs, cs.circuit_permutation(circuit.gates, 3)), atol=1e-12)


def test_lowered_gate_library_patterns(system):
    for gates in (
        [cs.Gate("NOT", (0,))],
        [cs.Gate("CNOT", (0, 2))],
        [cs.Gate("TOFFOLI", (0, 2, 1))],
        [cs.Gate("FREDKIN", (2, 0, 1))],
    ):
        got = unitary_of(cs.CircuitIR(3, gates), system)
        want = cs.permutation_unitary(cs.circuit_permutation(gates, 3))
        assert cs.phase_pattern_equal(got, want), gates[0].kind


def test_rotation_gates_compile_to_expected_single_spin_action(system):
    got = unitary_of(cs.CircuitIR(3, [cs.Gate("RX", (0,), angle_deg=180.0)]), system)
    want = np.kron(np.array([[0, -1j], [-1j, 0]]), np.eye(4))
    assert_equal_up_to_global_phase(got.mat, want, tol=1e-10)

    got = unitary_of(cs.CircuitIR(3, [cs.Gate("RZ", (2,), angle_deg=90.0)]), system)
    phase = np.exp(-1j * np.pi / 4)
    want = np.kron(np.eye(4), np.diag([phase, phase.conjugate()]))
    assert_equal_up_to_global_phase(got.mat, want, tol=1e-10)


def test_boost_sequence_regression_numbers(system):
    seq = cs.compile_circuit(cs.CircuitIR(3, cs.boost_circuit()), system)
    assert len(seq.events) == 38
    assert seq.pulse_count() == 23
    assert seq.total_duration_s == pytest.approx(0.10287237287980786, rel=1e-12)
    assert seq.coupling_duration_s() == pytest.approx(0.030872372879807822, rel=1e-12)
    assert seq.frame_out() == {"a": 180.0, "b": 90.0, "c": -90.0}


def test_elision_only_moves_bookkeeping(system):
    # Pulsed z folds nothing here, so it is the unfolded reference.
    circuit = cs.CircuitIR(3, cs.boost_circuit())
    virtual = cs.compile_circuit(circuit, system)
    pulsed = cs.compile_circuit(circuit, system, z_mode="pulsed")
    assert_equal_up_to_global_phase(
        cs.simulate_sequence(virtual).mat, cs.simulate_sequence(pulsed).mat
    )
    assert sum(isinstance(e, FrameShift) for e in virtual.events) <= 3


class _Walks(list):
    """An event list that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    z_mode=st.sampled_from(["virtual", "pulsed"]),
    bloch_siegert_deg=st.sampled_from([0.0, 3.0]),
)
def test_a_sequence_sums_itself_in_one_walk(n, data, seed, z_mode, bloch_siegert_deg):
    circuit = cs.CircuitIR(n, data.draw(_all_kind_circuits(n)))
    seq = cs.compile_circuit(circuit, _coupled_system(n, seed), z_mode=z_mode, bloch_siegert_deg=bloch_siegert_deg)
    pulses = [e for e in seq.events if isinstance(e, SelectivePulse)]
    # One walk when built gives the sums, with the bits of summing each alone.
    events = _Walks(seq.events)
    again = PulseSequence(seq.system, events)
    delays = [e.duration_s for e in seq.events if isinstance(e, Delay)]
    want = (len(pulses), sum(e.duration_s for e in seq.events), sum(delays))
    got = (again.pulse_count(), again.total_duration_s, again.coupling_duration_s())
    assert got[0] == want[0] and np.array(got[1:]).tobytes() == np.array(want[1:]).tobytes()
    assert events.walks == 1 and (seq.pulse_count(), seq.total_duration_s, seq.coupling_duration_s()) == got


def test_a_signed_zero_rotation_keeps_its_sign(system):
    circuit = parse_circuit("RX a 0\nRX a -0\nRX a 0\n", system)
    seq = cs.compile_circuit(circuit, system)
    angles = [e.angle_deg for e in seq.events]
    assert np.array(angles).tobytes() == np.array([0.0, -0.0, 0.0]).tobytes()
    assert '"angle_deg": -0.0' in seq.to_json()


def _all_kind_circuits(n):
    """Lists of one to six gates of all nine kinds on n spins, rotations at any angle."""
    arity = {**cs.gates.PERMUTATION_KINDS, **cs.gates.ROTATION_KINDS}
    kinds = sorted(k for k, a in arity.items() if a <= n)
    angle = st.floats(min_value=-720.0, max_value=720.0)

    def build(kind, order, theta):
        rotation = kind in cs.gates.ROTATION_KINDS
        return cs.Gate(kind, tuple(order[: arity[kind]]), theta if rotation else None)

    gate = st.builds(build, st.sampled_from(kinds), st.permutations(range(n)), angle)
    return st.lists(gate, min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bloch_siegert_deg=st.floats(min_value=-10.0, max_value=10.0).filter(lambda x: x != 0.0),
)
def test_folding_z_rotations_keeps_the_unitary(n, data, seed, bloch_siegert_deg):
    """Both z modes, and the folded Bloch-Siegert shifts, against unfolded references.

    Pulsed mode without a Bloch-Siegert angle emits no frame shift, so it
    folds nothing: the virtual sequence must give its unitary up to a
    global phase. With an angle, the pulsed sequence must give the unitary
    of the zero-angle one with the shifts written out after every pulse.
    """
    system = _coupled_system(n, seed)
    circuit = cs.CircuitIR(n, data.draw(_all_kind_circuits(n)))
    pulsed = cs.compile_circuit(circuit, system, z_mode="pulsed")
    assert not any(isinstance(e, FrameShift) for e in pulsed.events)
    virtual = cs.compile_circuit(circuit, system, z_mode="virtual")
    assert_equal_up_to_global_phase(
        cs.simulate_sequence(virtual).mat, cs.simulate_sequence(pulsed).mat
    )

    unfolded = []
    for event in pulsed.events:
        unfolded.append(event)
        if isinstance(event, SelectivePulse):
            unfolded += [
                FrameShift(lab, bloch_siegert_deg) for lab in system.labels if lab != event.spin
            ]
    shifted = cs.compile_circuit(
        circuit, system, z_mode="pulsed", bloch_siegert_deg=bloch_siegert_deg
    )
    got = cs.simulate_sequence(shifted).mat
    assert np.abs(got - cs.simulate_sequence(PulseSequence(system, unfolded)).mat).max() <= 1e-12


def test_pulsed_z_mode_trades_duration_for_no_frame_shifts(system):
    circuit = cs.CircuitIR(3, cs.boost_circuit())
    virtual = cs.compile_circuit(circuit, system, z_mode="virtual")
    pulsed = cs.compile_circuit(circuit, system, z_mode="pulsed")
    assert not any(isinstance(e, FrameShift) for e in pulsed.events)
    assert pulsed.total_duration_s > virtual.total_duration_s
    target = cs.permutation_unitary(cs.circuit_permutation(circuit.gates, 3))
    assert cs.phase_pattern_equal(cs.simulate_sequence(pulsed), target)
    with pytest.raises(ValueError, match="z_mode"):
        cs.compile_circuit(circuit, system, z_mode="sideways")


def test_refocusing_cancels_spectator_couplings(system):
    # One CNOT between b and c: the echo must hide spin a's couplings while
    # letting the b-c coupling evolve for the full half turn.
    seq = cs.compile_circuit(cs.CircuitIR(3, [cs.Gate("CNOT", (1, 2))]), system)
    delays = [e.duration_s for e in seq.events if isinstance(e, Delay)]
    assert sum(delays) == pytest.approx(1.0 / (2.0 * 53.8), rel=1e-12)
    # The spectator is inverted mid-delay and restored, costing extra pulses.
    pulses_on_a = [e for e in seq.events if isinstance(e, SelectivePulse) and e.spin == "a"]
    assert len(pulses_on_a) == 2
    assert all(p.angle_deg == 180.0 for p in pulses_on_a)


@pytest.mark.parametrize("count", range(1, 17))
def test_the_echo_schedule_flips_each_spectator_along_its_walsh_row(count):
    """Spectator r follows Walsh row r + 1 over the 2**k slices and ends at +1.

    The flips at the end of slice c are exactly the spectators whose sign
    (-1)**popcount((r + 1) & c) changes into slice c + 1, or, after the
    last slice, is not back at +1. Read back from the flips, every row sums
    to zero over the slices (it is orthogonal to the active pair's constant
    row) and every two rows are orthogonal.
    """
    schedule = _echo_schedule(count)
    slices = len(schedule)
    assert slices == 1 << count.bit_length()

    def walsh(row, col):
        return -1 if bin(row & col).count("1") % 2 else 1

    sign, rows = [1] * count, np.empty((count, slices), dtype=int)
    for col, flips in enumerate(schedule):
        after = [walsh(r + 1, col + 1) if col + 1 < slices else 1 for r in range(count)]
        assert list(flips) == [r for r in range(count) if walsh(r + 1, col) != after[r]]
        rows[:, col] = sign
        for r in flips:
            sign[r] = -sign[r]
    assert sign == [1] * count
    assert rows.tolist() == [[walsh(r + 1, col) for col in range(slices)] for r in range(count)]
    assert not rows.sum(axis=1).any()
    assert np.array_equal(rows @ rows.T, slices * np.eye(count, dtype=int))


def test_no_spectators_means_no_echo():
    two = cs.SpinSystem(
        labels=["s", "t"],
        j_hz=[[0.0, 50.0], [50.0, 0.0]],
        shift_ppm=[0.0, 1.0],
        epsilon0=1e-4,
    )
    seq = cs.compile_circuit(cs.CircuitIR(2, [cs.Gate("CNOT", (0, 1))]), two)
    delays = [e for e in seq.events if isinstance(e, Delay)]
    assert len(delays) == 1
    assert delays[0].duration_s == pytest.approx(0.01, rel=1e-12)
    got = cs.simulate_sequence(seq)
    want = cs.permutation_unitary(cs.circuit_permutation([cs.Gate("CNOT", (0, 1))], 2))
    assert cs.phase_pattern_equal(got, want)


@pytest.mark.parametrize("z_mode", ["virtual", "pulsed"])
def test_each_distinct_pulse_is_built_once_and_shared(system, z_mode):
    circuit = parse_circuit("RX a -0\nRX a 0\nRX a -0\nRZ a 30\nRX a 0\nRX a 0\nTOFFOLI a b c\nTOFFOLI a b c\n", system)
    seq = cs.compile_circuit(circuit, system, z_mode=z_mode, bloch_siegert_deg=0.5)
    pulses = [e for e in seq.events if isinstance(e, SelectivePulse)]
    distinct = {}
    for pulse in pulses:
        key = (pulse.spin, pulse.phase_deg.hex(), pulse.angle_deg.hex())
        assert distinct.setdefault(key, pulse) is pulse
    # A -0.0 angle stays its own pulse: a float key would have merged it with 0.0.
    assert [p.angle_deg.hex() for p in pulses[:3]] == ["-0x0.0p+0", "0x0.0p+0", "-0x0.0p+0"]
    assert len(distinct) < len(pulses)


def test_compile_requires_couplings():
    uncoupled = cs.SpinSystem(
        labels=["s", "t"],
        j_hz=[[0.0, 0.0], [0.0, 0.0]],
        shift_ppm=[0.0, 1.0],
        epsilon0=1e-4,
    )
    with pytest.raises(ValueError, match="uncoupled"):
        cs.compile_circuit(cs.CircuitIR(2, [cs.Gate("CNOT", (0, 1))]), uncoupled)


def test_the_phase_toffoli_is_refused_by_the_compile_coupling_check():
    # Each delay, up to 1/|J|, is infinite at a subnormal coupling.
    j_hz = [[0.0 if i == k else 1e-320 for k in range(3)] for i in range(3)]
    tiny = cs.SpinSystem(labels=["a", "b", "c"], j_hz=j_hz, shift_ppm=[0.0] * 3, epsilon0=1e-4)
    message = r"^j_hz must hold couplings whose 1/\|J\| and 2 pi \|J\| are finite, to compile$"
    with pytest.raises(ValueError, match=message):
        cs.lower_toffoli_phase(tiny, DurationModel(), 0, 1, 2)


def test_bloch_siegert_compensation_changes_the_ideal_propagator(system):
    circuit = cs.CircuitIR(3, cs.boost_circuit())
    plain = unitary_of(circuit, system)
    corrected = unitary_of(circuit, system, bloch_siegert_deg=1.0)
    # The corrections are intentional deviations from the shift-free ideal:
    # they model phase ramps the real transmitter would need.
    assert np.abs(plain.mat - corrected.mat).max() > 1e-3


def test_custom_pulse_width_scales_pulse_time_only(system):
    circuit = cs.CircuitIR(3, cs.boost_circuit())
    slow = cs.compile_circuit(circuit, system, DurationModel(pulse90_s=4e-3))
    fast = cs.compile_circuit(circuit, system, DurationModel(pulse90_s=1e-3))
    assert slow.coupling_duration_s() == pytest.approx(fast.coupling_duration_s(), rel=1e-12)
    assert slow.total_duration_s > fast.total_duration_s


# --- propagator ----------------------------------------------------------------


def test_permutation_unitary_and_pattern_checks():
    u = cs.permutation_unitary(np.array([1, 0, 2, 3]))
    assert u.n == 2
    assert u.mat[1, 0] == 1.0 and u.mat[0, 1] == 1.0
    with pytest.raises(ValueError):
        cs.permutation_unitary(np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        cs.phase_pattern_equal(u, cs.permutation_unitary(np.arange(8)))


def test_simulated_delay_applies_coupling_phases(system):
    # A bare delay of 1/(4 J_bc) puts a quarter-turn phase between the
    # aligned and anti-aligned b-c configurations.
    two = cs.SpinSystem(
        labels=["s", "t"],
        j_hz=[[0.0, 40.0], [40.0, 0.0]],
        shift_ppm=[0.0, 1.0],
        epsilon0=1e-4,
    )
    seq = PulseSequence(two, [Delay(duration_s=1.0 / (4 * 40.0))])
    u = cs.simulate_sequence(seq).mat
    diag = np.diag(u)
    assert diag[0] == pytest.approx(np.exp(-1j * np.pi / 8), abs=1e-12)
    assert diag[1] == pytest.approx(np.exp(+1j * np.pi / 8), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_simulate_sequence_matches_the_kron_oracle(n, data, seed):
    rng = np.random.default_rng(seed)
    j_hz = np.triu(rng.uniform(-150.0, 150.0, (n, n)) * (rng.random((n, n)) < 0.7), 1)
    system = cs.SpinSystem([f"s{k}" for k in range(n)], j_hz + j_hz.T, np.zeros(n), 1e-5)
    spin = st.sampled_from(system.labels)
    angle = st.floats(min_value=-3600.0, max_value=3600.0)
    event = st.one_of(
        st.builds(SelectivePulse, spin, angle, angle, st.floats(min_value=0.0, max_value=1e-2)),
        st.builds(Delay, st.floats(min_value=0.0, max_value=5e-2)),
        st.builds(FrameShift, spin, angle),
    )
    seq = PulseSequence(system, data.draw(st.lists(event, max_size=40)))
    got = cs.simulate_sequence(seq).mat
    assert np.abs(got - oracles.simulate_sequence_kron(seq)).max() <= 1e-12


def test_simulate_sequence_matches_the_kron_oracle_on_an_8_spin_boost():
    rng = np.random.default_rng(8)
    j_hz = np.triu(rng.uniform(20.0, 150.0, (8, 8)) * rng.choice((-1.0, 1.0), (8, 8)), 1)
    system = cs.SpinSystem([f"q{k}" for k in range(8)], j_hz + j_hz.T, np.zeros(8), 3e-5)
    gates = cs.boost_circuit(0, 1, 2)
    seq = cs.compile_circuit(cs.CircuitIR(8, gates), system)
    got = cs.simulate_sequence(seq)
    assert np.abs(got.mat - oracles.simulate_sequence_kron(seq)).max() <= 1e-12
    target = cs.permutation_unitary(cs.circuit_permutation(gates, 8))
    assert cs.phase_pattern_equal(got, target)


# --- probe verification against the dense oracle -------------------------------


def _coupled_system(n, seed):
    rng = np.random.default_rng(seed)
    j_hz = np.triu(rng.uniform(20.0, 150.0, (n, n)) * rng.choice((-1.0, 1.0), (n, n)), 1)
    return cs.SpinSystem([f"q{k}" for k in range(n)], j_hz + j_hz.T, np.zeros(n), 3e-5)


def _circuits(n):
    """Lists of one to five NOT/CNOT/TOFFOLI/FREDKIN gates on n spins."""
    kinds = [k for k, arity in cs.gates.PERMUTATION_KINDS.items() if arity <= n]
    gate = st.builds(
        lambda kind, order: cs.Gate(kind, tuple(order[: cs.gates.PERMUTATION_KINDS[kind]])),
        st.sampled_from(kinds),
        st.permutations(range(n)),
    )
    return st.lists(gate, min_size=1, max_size=5)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    z_mode=st.sampled_from(["virtual", "pulsed"]),
)
def test_a_compiled_sequence_survives_a_json_round_trip(n, data, seed, z_mode):
    circuit = cs.CircuitIR(n, data.draw(_circuits(n)))
    seq = cs.compile_circuit(circuit, _coupled_system(n, seed), z_mode=z_mode)
    text = seq.to_json()
    again = PulseSequence.from_json(text)
    assert again.events == seq.events
    assert again.to_json() == text


def _mutate(events, mutation, pick, factor):
    """The event list with one pulse or delay changed; unchanged if none exists."""
    kind = Delay if mutation == "delay" else SelectivePulse
    where = [i for i, e in enumerate(events) if isinstance(e, kind)]
    if mutation == "none" or not where:
        return events
    i = where[pick % len(where)]
    event = events[i]
    if mutation == "drop":
        changed = []
    elif mutation == "phase":
        changed = [dataclasses.replace(event, phase_deg=event.phase_deg + 180.0)]
    elif mutation == "angle":
        changed = [dataclasses.replace(event, angle_deg=event.angle_deg + 90.0)]
    else:
        changed = [dataclasses.replace(event, duration_s=event.duration_s * factor)]
    return events[:i] + changed + events[i + 1 :]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    z_mode=st.sampled_from(["virtual", "pulsed"]),
    mutation=st.sampled_from(["none", "drop", "phase", "angle", "delay"]),
    pick=st.integers(min_value=0, max_value=10**6),
    factor=st.floats(min_value=1.1, max_value=2.0),
)
def test_probe_verdict_matches_the_dense_verdict(n, data, seed, z_mode, mutation, pick, factor):
    """`verify_permutation` agrees with the dense phase-pattern check.

    Random fully coupled systems of 2 to 6 spins, random NOT/CNOT/TOFFOLI/
    FREDKIN circuits compiled in both z modes, unmutated or with a pulse
    dropped, a pulse phase shifted by 180 degrees, a pulse angle changed by
    90 degrees, or a delay scaled by a factor in [1.1, 2]. Draws whose dense
    deviation (the largest | |U| - |P| | entry) lies in (1e-9, 1e-6) are
    skipped: both checks use 1e-8, but on different quantities (a magnitude
    against a probe residual of a similar but not equal size), so inside
    that band they can honestly disagree.
    """
    gates = data.draw(_circuits(n))
    system = _coupled_system(n, seed)
    seq = cs.compile_circuit(cs.CircuitIR(n, gates), system, z_mode=z_mode)
    seq = PulseSequence(system, _mutate(list(seq.events), mutation, pick, factor))
    perm = cs.circuit_permutation(gates, n)
    dense, target = cs.simulate_sequence(seq), cs.permutation_unitary(perm)
    deviation = np.abs(np.abs(dense.mat) - np.abs(target.mat)).max()
    assume(not 1e-9 < deviation < 1e-6)
    assert cs.verify_permutation(seq, perm) == cs.phase_pattern_equal(dense, target)


def test_probe_verdict_passes_the_boost_and_fails_a_phase_ramp_at_8_spins():
    system = _coupled_system(8, 8)
    gates = cs.boost_circuit(0, 1, 2)
    perm = cs.circuit_permutation(gates, 8)
    for z_mode in ("virtual", "pulsed"):
        good = cs.compile_circuit(cs.CircuitIR(8, gates), system, z_mode=z_mode)
        bad = cs.compile_circuit(cs.CircuitIR(8, gates), system, z_mode=z_mode, bloch_siegert_deg=3.0)
        assert cs.verify_permutation(good, perm)
        assert not cs.verify_permutation(bad, perm)
        # A different permutation of the same sequence is not its circuit.
        assert not cs.verify_permutation(good, cs.circuit_permutation(gates[:-1], 8))


@pytest.mark.parametrize("error_deg, verdict", [(1e-3, False), (1e-9, True)])
def test_probe_and_dense_verdicts_agree_on_small_pulse_errors(error_deg, verdict):
    # A pulse off by 1e-3 degrees leaks about 9e-6 of amplitude, well above
    # the 1e-8 tolerance of both checks; 1e-9 degrees leaks about 9e-12.
    system = _coupled_system(5, 5)
    gates = cs.boost_circuit(0, 2, 4)
    seq = cs.compile_circuit(cs.CircuitIR(5, gates), system)
    events = list(seq.events)
    i = next(k for k, e in enumerate(events) if isinstance(e, SelectivePulse))
    events[i] = dataclasses.replace(events[i], angle_deg=events[i].angle_deg + error_deg)
    seq = PulseSequence(system, events)
    perm = cs.circuit_permutation(gates, 5)
    dense = cs.phase_pattern_equal(cs.simulate_sequence(seq), cs.permutation_unitary(perm))
    assert cs.verify_permutation(seq, perm) == dense == verdict


@st.composite
def _adjacent_rotations(draw, labels, phase):
    """Two or three pulses on one spin that do not commute, with gaps between them.

    The pulses alternate between two phases 1 to 179 degrees apart, through
    angles that are not multiples of 180, as a pulsed RZ's 90/theta/-90
    does. A gap is nothing, a zero frame shift on the spin or a zero delay,
    which leave the run between two pulses empty, so the engine fuses them
    into one 2x2 matrix; a 180-degree pulse on any spin, whose flip is only
    counted and whose phase, unless zero, keeps them apart; or a frame
    shift on the spin or a delay, which keep them apart.
    """
    spin = draw(st.sampled_from(labels))
    angle = st.one_of(st.sampled_from([90.0, -90.0]), st.floats(min_value=1.0, max_value=179.0))
    phases = [draw(phase)]
    phases.append(phases[0] + draw(st.one_of(st.just(90.0), st.floats(min_value=1.0, max_value=179.0))))
    gap = st.one_of(
        st.just([]),
        st.just([FrameShift(spin, 0.0)]),
        st.just([Delay(0.0)]),
        st.builds(lambda s, p: [SelectivePulse(s, p, 180.0, 4e-3)], st.sampled_from(labels), phase),
        st.builds(lambda a: [FrameShift(spin, a)], phase),
        st.builds(lambda t: [Delay(t)], st.floats(min_value=0.0, max_value=5e-2)),
    )
    events = []
    for k in range(draw(st.integers(min_value=2, max_value=3))):
        if k:
            events += draw(gap)
        events.append(SelectivePulse(spin, phases[k % 2], draw(angle) * draw(st.sampled_from([1.0, -1.0])), 2e-3))
    return events


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    other_pulses=st.booleans(),
)
def test_propagate_collapses_echo_runs_as_the_kron_oracle_does(n, data, seed, other_pulses):
    """Runs of delays, frame shifts and exact 180/540-degree pulses.

    Most events flip a spin (angles +-180 and +-540 at random phases, and
    often at phase 0 or 90 as compiled echoes are), so runs are long and
    most spins end a run flipped. Without `other_pulses` the whole sequence
    is one run; with them, a few pulses of arbitrary angle split it, and so
    do groups of two or three on one spin that the engine fuses or keeps
    apart (`_adjacent_rotations`): at least one group, often on a spin left
    flipped. A tail of one to three flips ends the sequence, so the last
    run often leaves a spin flipped an odd number of times.
    """
    rng = np.random.default_rng(seed)
    j_hz = np.triu(rng.uniform(-150.0, 150.0, (n, n)) * (rng.random((n, n)) < 0.7), 1)
    system = cs.SpinSystem([f"s{k}" for k in range(n)], j_hz + j_hz.T, np.zeros(n), 1e-5)
    spin = st.sampled_from(system.labels)
    phase = st.one_of(st.sampled_from([0.0, 90.0]), st.floats(min_value=-720.0, max_value=720.0))
    flip = st.builds(
        SelectivePulse, spin, phase, st.sampled_from([180.0, -180.0, 540.0, -540.0]), st.just(4e-3)
    )
    kinds = [
        flip,
        flip,
        flip,
        st.builds(Delay, st.floats(min_value=0.0, max_value=5e-2)),
        st.builds(FrameShift, spin, phase),
    ]
    if other_pulses:
        kinds.append(st.builds(SelectivePulse, spin, phase, phase, st.just(2e-3)))
    groups = [kind.map(lambda event: [event]) for kind in kinds]
    if other_pulses:
        groups.append(_adjacent_rotations(system.labels, phase))
    events = [event for group in data.draw(st.lists(st.one_of(groups), max_size=40)) for event in group]
    if other_pulses:
        events += data.draw(_adjacent_rotations(system.labels, phase))
    events += data.draw(st.lists(flip, min_size=1, max_size=3))
    seq = PulseSequence(system, events)
    block = rng.standard_normal((2**n, 3)) + 1j * rng.standard_normal((2**n, 3))
    block /= np.linalg.norm(block, axis=0)
    got = propagate(seq, block)
    assert np.abs(got - oracles.simulate_sequence_kron(seq) @ block).max() <= 1e-12


def test_propagate_applies_the_dense_unitary_to_a_block_of_vectors():
    system = _coupled_system(4, 4)
    seq = cs.compile_circuit(cs.CircuitIR(4, cs.boost_circuit(1, 2, 3)), system, z_mode="pulsed")
    block = np.random.default_rng(4).standard_normal((16, 3)) + 0j
    got = propagate(seq, block)
    assert np.abs(got - oracles.simulate_sequence_kron(seq) @ block).max() <= 1e-12
    with pytest.raises(ValueError, match=r"\(16, k\) block"):
        propagate(seq, np.ones(16))
    # A pulsed RZ is three pulses on its spin with nothing between them: one
    # 2x2 matrix, and a closing run.
    rz = cs.compile_circuit(cs.CircuitIR(4, [cs.Gate("RZ", (2,), 30.0)]), system, z_mode="pulsed")
    assert len(rz.events) == 3
    steps, _, _ = cs.propagator._bookkeeping(rz, cs.propagator._layout(4)[0])
    assert [spin for _, spin, _ in steps] == [2, None]


def test_permutations_with_non_integer_entries_are_rejected_not_truncated():
    system = _coupled_system(3, 3)
    seq = cs.compile_circuit(cs.CircuitIR(3, cs.boost_circuit()), system)
    perm = cs.circuit_permutation(cs.boost_circuit(), 3)
    assert cs.verify_permutation(seq, perm)
    assert cs.verify_permutation(seq, perm.tolist())
    for bad in (perm + 0.4, perm.astype(float), np.arange(8) % 2 == 0):
        with pytest.raises(ValueError, match="must be integers"):
            cs.verify_permutation(seq, bad)
        with pytest.raises(ValueError, match="must be integers"):
            cs.permutation_unitary(bad)


def test_verify_permutation_enforces_the_verification_budget(monkeypatch):
    # The probe check holds a few (2**17, 4) complex blocks here, and would
    # hold a few of 2**24 rows (256 MiB each) at the population budget.
    monkeypatch.delenv(CAPACITY_ENV_VAR, raising=False)
    seq = cs.compile_circuit(cs.CircuitIR(17, cs.boost_circuit()), _coupled_system(17, 17))
    perm = cs.circuit_permutation(cs.boost_circuit(), 17)
    with pytest.raises(cs.CapacityError, match="17 spins exceeds the budget of 16 for verification"):
        cs.verify_permutation(seq, perm)
    monkeypatch.setenv(CAPACITY_ENV_VAR, "17")
    assert cs.verify_permutation(seq, perm)


def test_verify_permutation_peaks_at_a_few_blocks_of_probes_at_14_spins():
    """No n x 2**n array: the traced peak stays under 4.5 MiB on a fully coupled 14-spin boost.

    A (2**14, 4) block of probes is 1 MiB, and the probes, their propagated
    copy and one step's result are three of them. An n x 2**n float array
    is 1.75 MiB here, so one more of them crosses the bound.
    """
    system = _coupled_system(14, 14)
    gates = cs.boost_circuit(0, 1, 2)
    perm = cs.circuit_permutation(gates, 14)
    for z_mode in ("virtual", "pulsed"):
        seq = cs.compile_circuit(cs.CircuitIR(14, gates), system, z_mode=z_mode)
        tracemalloc.start()
        try:
            assert cs.verify_permutation(seq, perm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20, (z_mode, peak)


def test_verify_permutation_rejects_bad_permutations_and_non_unitary_events(monkeypatch):
    system = _coupled_system(3, 3)
    seq = cs.compile_circuit(cs.CircuitIR(3, cs.boost_circuit()), system)
    with pytest.raises(ValueError, match="8 entries"):
        cs.verify_permutation(seq, np.arange(4))
    with pytest.raises(ValueError, match="bijection"):
        cs.verify_permutation(seq, np.zeros(8, dtype=int))
    # Only pulses that are not through an odd multiple of 180 degrees take
    # their 2x2 matrix; the boost has some (its CNOTs' 90-degree pulses).
    assert any(isinstance(e, SelectivePulse) and e.angle_deg % 360.0 != 180.0 for e in seq.events)
    monkeypatch.setattr(cs.propagator, "_single_spin_matrix", lambda event: 1.001 * np.eye(2))
    with pytest.raises(ValueError, match="not unitary"):
        cs.verify_permutation(seq, cs.circuit_permutation(cs.boost_circuit(), 3))
    with pytest.raises(ValueError, match="not unitary"):
        cs.simulate_sequence(seq)
