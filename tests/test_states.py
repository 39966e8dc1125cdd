"""State containers, basis conventions, and the spin-system value object."""
import json
import math
import os
import re
import stat
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coolspin import (
    CapacityError,
    CircuitIR,
    CoolingPlan,
    Gate,
    PopulationState,
    SpinSystem,
    Unitary,
    apply_permutation,
    boost_exact,
    compile_circuit,
    conditional_polarization_after_cnot,
    coupled_delay_s,
    entropy_binary,
    entropy_bound_kmax,
    entropy_deficit,
    example_system,
    example_system_path,
    iz_product_diag,
    permutation_unitary,
    permute_vector,
    plan_rounds,
    polarization,
    readout,
    thermal_polarization,
    thermal_state,
    verify_permutation,
)
from coolspin import states
from coolspin import system as system_module
from coolspin.propagator import propagate
from coolspin.pulses import Delay, DurationModel, FrameShift, PulseSequence, SelectivePulse, event_from_dict
from coolspin.states import (
    CAPACITY_ENV_VAR,
    check_budget,
    iz_diag,
    memory_budget,
    spin_axis,
    read_text,
    spin_bit,
    write_in_place,
)

import oracles


def test_thermal_state_three_spins():
    state = thermal_state(3)
    assert state.pops.tolist() == [1.5, 0.5, 0.5, -0.5, 0.5, -0.5, -0.5, -1.5]


def test_thermal_state_needs_no_numpy_bit_count(monkeypatch):
    # np.bitwise_count exists only from numpy 2.0; pyproject allows 1.24+.
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    for n in range(1, 11):
        assert thermal_state(n).pops.tolist() == oracles.thermal_diag(n)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_spin_signs_match_bit_tuple_references(n, data, seed):
    spin = data.draw(st.integers(min_value=0, max_value=n - 1))
    rng = np.random.default_rng(seed)
    # Integer entries keep every signed sum exact whatever the summation order.
    values = rng.integers(-1000, 1001, size=2**n).astype(float)
    values[0] -= values.sum()  # traceless, so it is a population state
    j_hz = np.triu(rng.uniform(-150.0, 150.0, (n, n)) * (rng.random((n, n)) < 0.7), 1)
    j_hz = j_hz + j_hz.T
    system = SpinSystem([f"s{k}" for k in range(n)], j_hz, np.zeros(n), 1e-5)
    seconds = float(rng.uniform(1e-4, 1e-1))

    assert iz_diag(n, spin).tolist() == oracles.iz_diag(n, spin)
    signed = oracles.signed_sum(values.tolist(), n, spin)
    assert polarization(PopulationState(n=n, pops=values), spin) == signed * 2 / 2**n
    offsets = oracles.line_offsets(j_hz.tolist(), spin)
    lines = readout(thermal_state(n), system, spin).lines
    assert len(lines) == len(offsets)
    assert all(line.freq_hz == offsets[line.spectator] for line in lines)
    angles = np.array(oracles.delay_angles(j_hz.tolist(), seconds))
    phases = propagate(PulseSequence(system, [Delay(seconds)]), np.ones((2**n, 1)))[:, 0]
    assert np.abs(phases - np.exp(-1.0j * angles)).max() <= 1e-12


def test_thermal_polarization_is_one_for_every_spin():
    for n in (1, 2, 3, 5):
        state = thermal_state(n)
        for spin in range(n):
            assert polarization(state, spin) == 1.0


def test_population_state_rejects_wrong_shape_and_nonzero_sum():
    with pytest.raises(ValueError, match="populations"):
        PopulationState(n=2, pops=np.zeros(3))
    with pytest.raises(ValueError, match="sum to zero"):
        PopulationState(n=1, pops=np.array([1.0, 0.5]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "pops",
    [
        [1e308, 1e308, 1, 1, 1, 1, 1, 1],  # not traceless, though inf <= TRACE_TOL * inf
        [1e308, -1e308, 0, 0, 0, 0, 0, 0],  # traceless, but spin a's line reads inf
        [float("nan"), 0, 0, 0, 0, 0, 0, 0],
        [float("inf"), -float("inf"), 0, 0, 0, 0, 0, 0],
    ],
)
def test_population_state_rejects_pops_whose_magnitudes_overflow(pops):
    with pytest.raises(ValueError, match="pops must be finite"):
        PopulationState(n=3, pops=pops)
    half = [0.8e308, -0.8e308, 0, 0, 0, 0, 0, 0]  # magnitudes sum to 1.6e308, still finite
    assert PopulationState(n=3, pops=half).pops.tolist() == half


@pytest.mark.parametrize(("n", "seed"), [(18, 2), (20, 3)])
def test_population_state_tolerates_the_rounding_of_a_large_zero_sum(n, seed):
    # Mean-subtracted normal draws sum to about 1e-11 in floats, not to zero,
    # which a tolerance scaled by max|p| rejected for these seeds. A JSON
    # float round trip is exact, so the dict stands for a loaded file.
    pops = np.random.default_rng(seed).normal(size=2**n)
    pops -= pops.mean()
    data = {"n": n, "pops": pops.tolist()}
    state = PopulationState.from_dict(data)
    assert np.array_equal(state.pops, pops)
    data["pops"][0] += 1e-3
    with pytest.raises(ValueError, match="sum to zero"):
        PopulationState.from_dict(data)


def _traced_peak(call) -> int:
    """The traced peak of `call()`, in bytes above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_population_state_checks_its_trace_without_a_second_vector():
    # The sum of magnitudes goes chunk by chunk: no 2**n temporary of |pops|.
    vec = thermal_state(18).pops.copy()
    assert _traced_peak(lambda: PopulationState(18, vec)) <= 2**20
    assert _traced_peak(lambda: thermal_state(18)) <= 1.6 * vec.nbytes + 2**20


@pytest.mark.parametrize("n", [True, 1.0, 1.5, "1"])
def test_population_state_loading_rejects_a_spin_count_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match="n must be a positive integer"):
        PopulationState.from_dict({"n": n, "pops": [0.5, -0.5]})
    with pytest.raises(ValueError, match="spin count must be a positive integer"):
        thermal_state(n)


def test_population_state_round_trips_through_dict():
    state = thermal_state(2)
    again = PopulationState.from_dict(state.to_dict())
    assert again.n == 2
    assert np.array_equal(again.pops, state.pops)


_FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=8), data=st.data())
def test_a_population_state_survives_a_json_round_trip(n, data):
    raw = np.array(data.draw(st.lists(_FINITE, min_size=2**n, max_size=2**n)))
    state = PopulationState(n=n, pops=raw - raw.mean())
    again = PopulationState.from_dict(json.loads(json.dumps(state.to_dict())))
    assert again.n == state.n
    assert np.array_equal(again.pops, state.pops)


def test_unitary_rejects_non_unitary_matrix():
    with pytest.raises(ValueError, match="not unitary"):
        Unitary(n=1, mat=np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_one_byte_budget_and_env_override(monkeypatch):
    monkeypatch.delenv(CAPACITY_ENV_VAR, raising=False)
    assert memory_budget() == 8 * 2**24 == 128 * 2**20
    # thermal_state(24) passes both of its checks; a stand-in for its 128 MiB outer sum fails the shape.
    with monkeypatch.context() as patch, pytest.raises(ValueError, match="pops must hold 16777216 populations"):
        patch.setattr(states, "reduce", lambda add, factors: np.zeros(2))
        thermal_state(24)
    with pytest.raises(CapacityError, match="a population vector of 25 spins needs 268435456 bytes"):
        thermal_state(25)
    # 48 * 4**n bytes: 10 spins pass the budget (and then the shape check fails), 11 do not.
    with pytest.raises(ValueError, match="expected a 1024x1024 matrix"):
        Unitary(n=10, mat=np.eye(2))
    with pytest.raises(CapacityError, match="a dense matrix of 11 spins"):
        Unitary(n=11, mat=np.eye(2))
    check_budget(memory_budget(), "exactly the budget")
    with pytest.raises(CapacityError, match=f"one byte more needs 134217729 bytes, over the budget of 134217728 .override with {CAPACITY_ENV_VAR}"):
        check_budget(memory_budget() + 1, "one byte more")
    # An N past 64 reads as 64, and a spin count from outside past 65 as 65: no huge integer.
    monkeypatch.setenv(CAPACITY_ENV_VAR, str(10**100))
    assert memory_budget() == 8 << 64
    with pytest.raises(CapacityError):
        PopulationState(n=10**30, pops=[0.0])

    monkeypatch.setenv(CAPACITY_ENV_VAR, "4")
    with pytest.raises(CapacityError, match=CAPACITY_ENV_VAR):
        thermal_state(5)
    for raw in ("not-a-number", "0", "-2"):
        monkeypatch.setenv(CAPACITY_ENV_VAR, raw)
        with pytest.raises(ValueError, match=f"{CAPACITY_ENV_VAR} must be a positive integer"):
            thermal_state(5)


def test_bare_diagonals_check_the_budget_before_allocating(monkeypatch):
    monkeypatch.setenv(CAPACITY_ENV_VAR, "4")
    with pytest.raises(CapacityError, match=CAPACITY_ENV_VAR):
        iz_diag(10, 0)
    with pytest.raises(CapacityError, match=CAPACITY_ENV_VAR):
        iz_product_diag(10, [0, 1])
    assert iz_diag(4, 0).shape == iz_product_diag(4, [0, 1]).shape == (16,)


def test_permute_vector_moves_entry_i_to_perm_i():
    out = permute_vector(np.array([10.0, 20.0, 30.0]), np.array([2, 0, 1]))
    assert out.tolist() == [20.0, 30.0, 10.0]
    with pytest.raises(ValueError, match="bijection"):
        permute_vector(np.array([1.0, 2.0]), np.array([0, 0]))
    with pytest.raises(ValueError, match="shape"):
        permute_vector(np.array([1.0, 2.0]), np.array([0, 1, 2]))


def test_apply_permutation_swaps_populations():
    state = PopulationState(n=1, pops=np.array([0.5, -0.5]))
    swapped = apply_permutation(state, np.array([1, 0]))
    assert swapped.pops.tolist() == [-0.5, 0.5]
    with pytest.raises(ValueError, match="entries"):
        apply_permutation(state, np.array([1, 0, 2]))


def test_spin_system_validation():
    with pytest.raises(ValueError, match="unique"):
        SpinSystem(labels=["a", "a"], j_hz=np.zeros((2, 2)), shift_ppm=np.zeros(2), epsilon0=0.5)
    with pytest.raises(ValueError, match="symmetric"):
        SpinSystem(
            labels=["a", "b"],
            j_hz=np.array([[0.0, 1.0], [2.0, 0.0]]),
            shift_ppm=np.zeros(2),
            epsilon0=0.5,
        )
    with pytest.raises(ValueError, match="Self-couplings|self-couplings"):
        SpinSystem(labels=["a"], j_hz=np.array([[1.0]]), shift_ppm=np.zeros(1), epsilon0=0.5)
    with pytest.raises(ValueError, match="epsilon0"):
        SpinSystem(labels=["a"], j_hz=np.zeros((1, 1)), shift_ppm=np.zeros(1), epsilon0=0.0)
    integers = SpinSystem(labels=["a", "b"], j_hz=[[0, 10], [10, 0]], shift_ppm=[0, 1], epsilon0=0.5)
    assert integers.j_hz.dtype == integers.shift_ppm.dtype == float


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SpinSystem([], np.zeros((0, 0)), np.zeros(0), 0.5), "a spin system needs at least one spin"),
        (lambda: SpinSystem(["a", "b"], np.zeros((2, 3)), np.zeros(2), 0.5), "j_hz must be 2x2, one coupling per pair, got (2, 3)"),
        (lambda: SpinSystem(["a", "b"], np.zeros((2, 2)), np.zeros(3), 0.5), "shift_ppm must hold one shift per spin, got (3,)"),
        (lambda: example_system().spin_index(3), "spin index 3 out of range for 3 spins"),
    ],
    ids=["no-labels", "j-hz-shape", "shift-ppm-shape", "index-out-of-range"],
)
def test_a_spin_system_refuses_a_malformed_input_naming_it(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "n, mat, message",
    [
        (2, np.eye(2), "expected a 4x4 matrix, got shape (2, 2)"),
        (1, np.ones(2), "expected a 2x2 matrix, got shape (2,)"),
    ],
    ids=["too-small", "a-vector"],
)
def test_unitary_refuses_a_matrix_of_the_wrong_shape(n, mat, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Unitary(n=n, mat=mat)


@pytest.mark.filterwarnings("error")
def test_spin_system_rejects_couplings_whose_row_sums_overflow():
    with pytest.raises(ValueError, match="j_hz must have a finite sum of"):
        SpinSystem(list("abcde"), np.full((5, 5), 1.5e308) * (1 - np.eye(5)), np.zeros(5), 0.5)
    # Each row sums to 1e308, but J - J.T would overflow: refused as asymmetric, with no warning.
    with pytest.raises(ValueError, match="symmetric"):
        SpinSystem(["a", "b"], [[0.0, 1e308], [-1e308, 0.0]], np.zeros(2), 0.5)
    assert SpinSystem(["a", "b"], [[0.0, 1e308], [1e308, 0.0]], np.zeros(2), 0.5).n == 2


def test_spin_system_loading_does_not_split_a_string_into_spins():
    data = {**example_system().to_dict(), "labels": "abc"}
    with pytest.raises(ValueError, match="labels must be a JSON array"):
        SpinSystem.from_dict(data)


@pytest.mark.parametrize(
    "data", [5, [1, 2], "abc", None], ids=["number", "array", "string", "null"]
)
def test_loaders_refuse_a_json_value_that_is_not_an_object(data):
    for load, name in (
        (PopulationState.from_dict, "a state"),
        (SpinSystem.from_dict, "a spin system"),
        (CoolingPlan.from_dict, "a plan"),
        (event_from_dict, "an event"),
        (lambda value: PulseSequence.from_json(json.dumps(value)), "a sequence"),
    ):
        with pytest.raises(ValueError, match=f"{name} must be a JSON object"):
            load(data)


def _fields(doc, path=()):
    """Path of every field of a JSON document, through objects and arrays."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        if isinstance(key, str):
            yield (*path, key)
        yield from _fields(value, (*path, key))


# One valid document per loader; each test example breaks one field of a copy.
_DOCUMENTS = {
    "state": (PopulationState.from_dict, thermal_state(2).to_dict()),
    "system": (SpinSystem.from_dict, example_system().to_dict()),
    "plan": (CoolingPlan.from_dict, plan_rounds(9, 1e-3, 2.2e-3, recycle=True).to_dict()),
    "sequence": (
        lambda doc: PulseSequence.from_json(json.dumps(doc)),
        json.loads(
            PulseSequence(
                example_system(),
                [SelectivePulse("a", 90.0, 180.0, 4e-3), Delay(1e-3), FrameShift("b", 30.0)],
            ).to_json()
        ),
    ),
}
# A value of each JSON type but number; a field is given one of another type.
_JSON_VALUES = st.one_of(
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.lists(st.integers(), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(_DOCUMENTS)), data=st.data())
def test_loaders_refuse_a_field_of_another_json_type_or_a_missing_one_naming_it(name, data):
    load, document = _DOCUMENTS[name]
    doc = json.loads(json.dumps(document))
    *parent, field = data.draw(st.sampled_from(list(_fields(doc))))
    owner = doc
    for key in parent:
        owner = owner[key]
    if data.draw(st.booleans()):
        del owner[field]
    else:
        kind = type(owner[field])
        owner[field] = data.draw(_JSON_VALUES.filter(lambda value: type(value) is not kind))
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        load(doc)


def test_spin_system_lookup_and_round_trip(tmp_path):
    system = example_system()
    assert system.labels == ["a", "b", "c"]
    assert system.n == 3
    assert system.spin_index("b") == 1
    assert system.spin_index(2) == system.spin_index(np.int64(2)) == 2
    for spin in (1.7, True, -1):
        with pytest.raises(ValueError, match="spin index must be a non-negative integer"):
            system.spin_index(spin)
    assert system.coupling("b", "c") == 53.8
    assert system.coupling(0, 1) == -122.1
    with pytest.raises(ValueError, match="unknown spin label"):
        system.spin_index("q")
    with pytest.raises(ValueError, match="itself"):
        system.coupling("a", "a")

    path = tmp_path / "system.json"
    system.save(path)
    again = SpinSystem.load(path)
    assert again.to_dict() == system.to_dict()
    assert example_system_path().exists()
    assert SpinSystem.load(example_system_path()).to_dict() == system.to_dict()


def test_a_saved_spin_system_replaces_a_longer_file_and_loads_back(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(" " * 100_000 + "{}")
    system = example_system()
    system.save(path)
    assert SpinSystem.load(path).to_dict() == system.to_dict()
    assert path.read_text() == json.dumps(system.to_dict(), indent=2) + "\n"


def test_the_bundled_system_is_built_without_reading_or_checking_anything(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the bundled system was read or checked")

    for owner, name in [(system_module, "read_json"), (states, "read_text"), (json, "loads"), (SpinSystem, "__post_init__")]:
        monkeypatch.setattr(owner, name, refuse)
    system = example_system()
    monkeypatch.undo()
    loaded = SpinSystem.load(example_system_path())
    assert system.to_dict() == loaded.to_dict()
    # The same attributes of the same types as the checked constructor sets: an
    # attribute that `__post_init__` comes to derive fails here until it is built too.
    assert {k: type(v) for k, v in vars(system).items()} == {k: type(v) for k, v in vars(loaded).items()}
    assert (system.j_hz.shape, system.j_hz.dtype, system.shift_ppm.shape, system.shift_ppm.dtype) == ((3, 3), float, (3,), float)


def test_the_bundled_system_is_fresh_on_every_call_and_passes_validation():
    first = example_system()
    first.labels.append("d")
    first.j_hz[0, 1] = 0.0
    first.shift_ppm[:] = 1.0
    first.epsilon0 = 0.5
    second = example_system()
    assert second.to_dict() == SpinSystem.load(example_system_path()).to_dict()
    assert SpinSystem.from_dict(second.to_dict()).to_dict() == second.to_dict()


@settings(max_examples=100, deadline=None)
@given(
    old=st.one_of(st.none(), st.binary(max_size=20_000), st.just("equal")),
    new=st.text(alphabet=st.characters(max_codepoint=127), max_size=20_000),
)
def test_a_rewrite_leaves_exactly_the_new_bytes_in_the_same_inode(old, new):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "artifact"
        if old is not None:
            # "equal": an old file of the new length, every byte different.
            path.write_bytes(b"\x80" * len(new) if old == "equal" else old)
            inode = path.stat().st_ino
        write_in_place(path, new)
        assert path.read_bytes() == new.encode()
        if old is not None:
            assert path.stat().st_ino == inode


@settings(max_examples=50, deadline=None)
@given(old=st.binary(max_size=2_000), new=st.text(max_size=500))
def test_a_rewrite_in_writes_of_at_most_7_bytes_leaves_exactly_the_new_bytes(old, new):
    # A short write can split a multi-byte character; the loop must still send every byte, once.
    sizes = []

    def short_write(fd, data):
        sizes.append(os.write(fd, data[:7]))
        return sizes[-1]

    encoded = new.encode("utf-8")
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "artifact"
        path.write_bytes(old + b"\x80" * (len(encoded) + 1))  # always longer than the new bytes
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(states, "os", SimpleNamespace(**{**vars(os), "write": short_write}))
            write_in_place(path, new)
        assert path.read_bytes() == encoded
    assert sum(sizes) == len(encoded) and len(sizes) == -(-len(encoded) // 7)


def test_read_text_decodes_utf8_bytes_as_they_are(tmp_path):
    path = tmp_path / "input.txt"
    path.write_bytes("\ufeff\u03b5\u2080 = 1e-5\r\nNOT a\r".encode("utf-8"))
    assert read_text(path) == "\ufeff\u03b5\u2080 = 1e-5\r\nNOT a\r"  # BOM and line ends kept
    path.write_bytes(b"\xe9")
    with pytest.raises(UnicodeDecodeError):
        read_text(path)


def test_a_rewrite_keeps_links_and_mode(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("x" * 1000)
    target.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    hard = tmp_path / "hard.json"
    os.link(target, hard)
    write_in_place(link, "{}")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == hard.read_text() == "{}"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_spin_bit_is_the_index_of_one_spin_flipped_alone():
    for n in range(1, 9):
        basis = np.arange(2**n)
        for spin in range(n):
            assert spin_bit(n, spin) == spin_axis(basis, spin)[0, 1, 0]
            assert [(i & spin_bit(n, spin)) != 0 for i in basis] == [x < 0 for x in oracles.iz_diag(n, spin)]
    for spin in (-1, 3):
        with pytest.raises(ValueError, match="out of range for 3 spins"):
            spin_bit(3, spin)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), data=st.data())
def test_a_spin_system_survives_a_json_round_trip(n, data):
    labels = data.draw(st.lists(st.text(min_size=1, max_size=4), min_size=n, max_size=n, unique=True))
    upper = np.triu(np.array(data.draw(st.lists(_FINITE, min_size=n * n, max_size=n * n))).reshape(n, n), 1)
    shifts = data.draw(st.lists(_FINITE, min_size=n, max_size=n))
    eps0 = data.draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    system = SpinSystem(labels=labels, j_hz=upper + upper.T, shift_ppm=shifts, epsilon0=eps0)
    again = SpinSystem.from_dict(json.loads(json.dumps(system.to_dict())))
    assert again.labels == system.labels
    assert np.array_equal(again.j_hz, system.j_hz)
    assert np.array_equal(again.shift_ppm, system.shift_ppm)
    assert again.epsilon0 == system.epsilon0


# Each scalar that a reader in `states` checks, by the field its message names.
_SCALAR_FIELDS = [
    ("phase_deg", lambda x: SelectivePulse("a", x, 90.0, 1e-3)),
    ("angle_deg", lambda x: SelectivePulse("a", 0.0, x, 1e-3)),
    ("angle_deg", lambda x: FrameShift("a", x)),
    ("RX angle", lambda x: Gate("RX", (0,), x)),
    ("CRZ angle", lambda x: Gate("CRZ", (0, 1), x)),
    ("eps0", lambda x: CoolingPlan(3, x, 0.5, False, [], 0.5)),
    ("target_eps", lambda x: CoolingPlan(3, 0.1, x, False, [], 0.5)),
    ("predicted_best", lambda x: CoolingPlan(3, 0.1, 0.5, False, [], x)),
    ("bloch_siegert_deg", lambda x: compile_circuit(CircuitIR(3, []), example_system(), bloch_siegert_deg=x)),
    ("polarization", boost_exact),
    ("polarization", conditional_polarization_after_cnot),
    ("polarization", entropy_binary),
    ("polarization", entropy_deficit),
    ("j_hz", lambda x: coupled_delay_s(x, 1.0)),
    ("turns", lambda x: coupled_delay_s(10.0, x)),
    ("larmor_hz", lambda x: thermal_polarization(x, 1.0)),
    ("temperature_k", lambda x: thermal_polarization(1e6, x)),
    ("n", lambda x: entropy_bound_kmax(x, 0.1)),
    ("duration_s", lambda x: SelectivePulse("a", 0.0, 90.0, x)),
    ("duration_s", Delay),
    ("pulse90_s", DurationModel),
]
_NOT_FINITE_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, True, False, np.True_, "0.5", "nan"])
_OUTSIDE_THE_UNIT_INTERVAL = st.floats().filter(lambda x: not 0.0 <= x <= 1.0)


def _uncoupled(n):
    return SpinSystem([f"q{i}" for i in range(n)], np.zeros((n, n)), np.zeros(n), 1e-4)


# Every user of a basis permutation, called on n spins.
_PERMUTATION_USERS = {
    "permute_vector": lambda n, perm: permute_vector(np.zeros(2**n), perm),
    "apply_permutation": lambda n, perm: apply_permutation(thermal_state(n), perm),
    "verify_permutation": lambda n, perm: verify_permutation(PulseSequence(_uncoupled(n), []), perm),
    "permutation_unitary": lambda n, perm: permutation_unitary(perm),
}
_BROKEN_PERMUTATIONS = {
    "floats": lambda perm: [float(i) for i in perm],
    "float-array": lambda perm: np.array(perm, dtype=float),
    "boolean-array": lambda perm: np.array(perm) % 2 == 0,
    # numpy would read this list as the integers it stands for.
    "a-boolean-among-integers": lambda perm: [True if i == 1 else i for i in perm],
    "2-d": lambda perm: np.array(perm).reshape(2, -1),
    "one-entry-too-many": lambda perm: [*perm, len(perm)],
    "repeated": lambda perm: [perm[0], *perm[1:-1], perm[0]],
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_outside_scalars_and_permutations_are_refused_by_one_reader_each(data):
    if data.draw(st.booleans(), label="scalar"):
        field, build = data.draw(st.sampled_from(_SCALAR_FIELDS), label="field")
        bad = _NOT_FINITE_NUMBERS
        if field in ("eps0", "polarization"):
            bad = st.one_of(bad, _OUTSIDE_THE_UNIT_INTERVAL)
        with pytest.raises(ValueError, match=rf"^{field} must"):
            build(data.draw(bad, label="value"))
        return
    use = _PERMUTATION_USERS[data.draw(st.sampled_from(sorted(_PERMUTATION_USERS)), label="user")]
    n = data.draw(st.integers(min_value=1, max_value=3), label="n")
    perm = data.draw(st.permutations(range(2**n)), label="perm")
    use(n, perm)
    use(n, np.array(perm))
    broken = _BROKEN_PERMUTATIONS[data.draw(st.sampled_from(sorted(_BROKEN_PERMUTATIONS)), label="broken")]
    with pytest.raises(ValueError):
        use(n, broken(perm))
