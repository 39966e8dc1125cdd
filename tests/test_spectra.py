"""Multiplet prediction from population states."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coolspin import (
    PopulationState,
    SpinSystem,
    Spectrum,
    apply_permutation,
    boost_circuit,
    circuit_permutation,
    example_system,
    line_frequencies,
    mean_enhancement,
    polarization,
    readout,
    thermal_state,
)
from coolspin import spectra

import oracles


@pytest.fixture()
def system():
    return example_system()


def boosted():
    return apply_permutation(thermal_state(3), circuit_permutation(boost_circuit(), 3))


def test_line_frequencies_are_half_sums_of_couplings(system):
    assert line_frequencies(system, "a") == pytest.approx(
        [-98.55, -23.55, 23.55, 98.55], abs=1e-12
    )
    # Spin b couples at -122.1 (to a) and 53.8 (to c).
    want = sorted(
        [(-122.1 * sa + 53.8 * sc) / 2 for sa in (1, -1) for sc in (1, -1)]
    )
    assert line_frequencies(system, 1) == pytest.approx(want, abs=1e-12)


def test_readout_lists_lines_highest_frequency_first(system):
    spec = readout(thermal_state(3), system, "a")
    assert spec.spin == 0
    freqs = spec.frequencies
    assert np.array_equal(freqs, sorted(freqs, reverse=True))
    assert sorted(freqs.tolist()) == line_frequencies(system, "a")


def test_thermal_state_reads_unit_amplitude_everywhere(system):
    for spin in range(3):
        spec = readout(thermal_state(3), system, spin)
        assert spec.amplitudes.tolist() == [1.0, 1.0, 1.0, 1.0]
        assert spec.mean_amplitude() == 1.0


def test_boosted_state_amplitude_patterns(system):
    post = boosted()
    assert readout(post, system, "a").amplitudes.tolist() == [1.0, 2.0, 1.0, 2.0]
    assert readout(post, system, "b").amplitudes.tolist() == [0.0, 1.0, 0.0, 1.0]
    assert readout(post, system, "c").amplitudes.tolist() == [-1.0, 0.0, 0.0, 1.0]


def test_mean_amplitude_equals_polarization(system):
    rng = np.random.default_rng(31)
    pops = rng.normal(size=8)
    pops -= pops.mean()
    state = PopulationState(n=3, pops=pops)
    for spin in range(3):
        spec = readout(state, system, spin)
        assert spec.mean_amplitude() == pytest.approx(polarization(state, spin), abs=1e-12)


def test_amplitude_is_population_difference_across_the_transition():
    two = SpinSystem(
        labels=["s", "t"],
        j_hz=[[0.0, 10.0], [10.0, 0.0]],
        shift_ppm=[0.0, 1.0],
        epsilon0=1e-4,
    )
    # Pops over |00>, |01>, |10>, |11>.
    state = PopulationState(n=2, pops=np.array([3.0, 1.0, -1.0, -3.0]))
    spec = readout(state, two, "s")
    # Line at +5 Hz has spin t up: 3 - (-1); line at -5 Hz has t down: 1 - (-3).
    assert spec.frequencies.tolist() == [5.0, -5.0]
    assert spec.amplitudes.tolist() == [4.0, 4.0]
    spec_t = readout(state, two, "t")
    assert spec_t.amplitudes.tolist() == [2.0, 2.0]


def test_spectator_field_tracks_line_identity(system):
    spec = readout(boosted(), system, "c")
    by_spectator = {line.spectator: line for line in spec.lines}
    # Spectator bits follow spin order (a, b), most significant first.
    assert by_spectator[0].freq_hz == pytest.approx((75.0 + 53.8) / 2)
    assert by_spectator[3].freq_hz == pytest.approx(-(75.0 + 53.8) / 2)


def test_readout_rejects_mismatched_sizes(system):
    with pytest.raises(ValueError, match="spins"):
        readout(thermal_state(2), system, 0)


def test_csv_export(system):
    text = readout(thermal_state(3), system, "a").to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "freq_hz,amplitude"
    assert len(lines) == 5
    freq, amp = lines[1].split(",")
    assert float(freq) == 98.55
    assert float(amp) == 1.0


def test_mean_enhancement_checks_compatibility(system):
    before = readout(thermal_state(3), system, "a")
    after = readout(boosted(), system, "a")
    assert mean_enhancement(after, before) == 1.5
    with pytest.raises(ValueError, match="different spins"):
        mean_enhancement(readout(boosted(), system, "b"), before)
    zero = PopulationState(n=3, pops=np.zeros(8))
    with pytest.raises(ValueError, match="zero mean"):
        mean_enhancement(after, readout(zero, system, "a"))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_mean_enhancement_refuses_a_reference_with_another_line_count(system, n):
    other = SpinSystem([f"q{i}" for i in range(n)], 10.0 * (1 - np.eye(n)), np.zeros(n), 1e-5)
    with pytest.raises(ValueError, match="^spectra have different line counts$"):
        mean_enhancement(readout(boosted(), system, "a"), readout(thermal_state(n), other, "q0"))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=8), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_readout_matches_the_bit_tuple_oracle_and_csv_round_trips(n, seed):
    rng = np.random.default_rng(seed)
    # Integer populations keep every difference exact; entry 0 makes the sum zero.
    pops = rng.integers(-1000, 1001, size=2**n).astype(float)
    pops[0] -= pops.sum()
    j_hz = np.triu(rng.uniform(-150.0, 150.0, (n, n)) * (rng.random((n, n)) < 0.7), 1)
    system = SpinSystem([f"s{k}" for k in range(n)], j_hz + j_hz.T, np.zeros(n), 1e-5)
    state = PopulationState(n=n, pops=pops)
    for spin in range(n):
        spec = readout(state, system, spin)
        want = oracles.line_amplitudes(pops.tolist(), n, spin)
        assert sorted(spec.lines.spectator.tolist()) == list(range(len(want)))
        assert all(line.amplitude == want[line.spectator] for line in spec.lines)
        header, *rows = spec.to_csv().splitlines()
        assert header == "freq_hz,amplitude"
        parsed = [tuple(float(x) for x in row.split(",")) for row in rows]
        assert [f for f, _ in parsed] == spec.frequencies.tolist()
        assert [a for _, a in parsed] == spec.amplitudes.tolist()


def _couplings(kind, n, dense, rng):
    j_hz = {
        "zero": lambda: np.zeros((n, n)),
        "integer": lambda: rng.integers(-150, 151, (n, n)).astype(float),
        "dyadic": lambda: rng.integers(-600, 601, (n, n)) / 8.0,
        "tiny": lambda: rng.uniform(-1.0, 1.0, (n, n)) * 1e-300,
        "random": lambda: rng.uniform(-150.0, 150.0, (n, n)),
    }[kind]()
    if not dense:
        j_hz *= rng.random((n, n)) < 0.4
    return np.triu(j_hz, 1) + np.triu(j_hz, 1).T


def _pops(kind, n, rng):
    if kind == "thermal":
        return thermal_state(n).pops
    if kind == "permuted":
        return thermal_state(n).pops[rng.permutation(2**n)]
    if kind == "integer":
        pops = rng.integers(-1000, 1001, size=2**n).astype(float)
        pops[0] -= pops.sum()
        return pops
    if kind == "signed-zeros":
        pops = rng.integers(-1, 2, size=2**n).astype(float)
        pops[0] -= pops.sum()
        return np.where((pops == 0) & (rng.random(2**n) < 0.5), -0.0, pops)
    pops = rng.normal(size=2**n)  # all distinct, so no amplitude repeats
    return pops - pops.mean()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    couplings=st.sampled_from(["zero", "integer", "dyadic", "tiny", "random"]),
    dense=st.booleans(),
    pops=st.sampled_from(["thermal", "permuted", "integer", "signed-zeros", "distinct"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_csv_bytes_equal_one_repr_per_float(n, couplings, dense, pops, seed):
    rng = np.random.default_rng(seed)
    j_hz = _couplings(couplings, n, dense, rng)
    system = SpinSystem([f"s{k}" for k in range(n)], j_hz, np.zeros(n), 1e-5)
    state = PopulationState(n=n, pops=_pops(pops, n, rng))
    for spin in range(n):
        spec = readout(state, system, spin)
        assert spec.to_csv() == oracles.csv_reference(spec.frequencies, spec.amplitudes)
        # The zero, integer and dyadic couplings tie offsets: tied lines must stay in
        # spectator index order, which only a stable sort promises.
        offsets = np.array(oracles.line_offsets(j_hz.tolist(), spin))
        assert spec.lines.spectator.tolist() == np.argsort(-offsets, kind="stable").tolist()


def _zeros_with_a_negative_zero(n):
    pops = np.zeros(2**n)
    pops[0] = -0.0  # spin 0 up, all spectators up: that line reads -0.0 - 0.0
    return pops


@pytest.mark.parametrize(
    ("n", "coupling", "pops", "want"),
    [
        # One line, at 0.0: no halves to mirror.
        (1, 0.0, thermal_state(1).pops, ["0.0,1.0"]),
        # Equal couplings put two zeros in the middle; a mirrored zero would read -0.0.
        (3, 10.0, thermal_state(3).pops, ["10.0,1.0", "0.0,1.0", "0.0,1.0", "-10.0,1.0"]),
        # A memo keyed by value would merge the -0.0 amplitude with 0.0.
        (5, 0.0, _zeros_with_a_negative_zero(5), ["0.0,-0.0"] + ["0.0,0.0"] * 15),
    ],
    ids=["one-spin", "zero-in-the-middle", "signed-zero-amplitude"],
)
def test_csv_falls_back_where_a_mirror_or_a_memo_by_value_would_differ(n, coupling, pops, want):
    system = SpinSystem(list("abcde")[:n], coupling * (1 - np.eye(n)), np.zeros(n), 1e-5)
    spec = readout(PopulationState(n=n, pops=pops), system, 0)
    csv = spec.to_csv()
    assert csv == oracles.csv_reference(spec.frequencies, spec.amplitudes)
    assert csv == "\n".join(["freq_hz,amplitude", *want, ""])


@pytest.mark.parametrize("distinct", [1024, 1025, 2048], ids=["half", "half-plus-one", "all"])
def test_csv_bytes_hold_on_either_side_of_the_amplitude_memo_threshold(distinct):
    # 2048 lines, from half to all of their amplitudes distinct: the memo's bytes must not
    # depend on how many of its texts are shared.
    rng = np.random.default_rng(distinct)
    values = rng.normal(size=distinct)
    amp = np.concatenate([values, values[rng.integers(0, distinct, 2048 - distinct)]])
    freq = np.sort(rng.uniform(-100.0, 100.0, 2048))[::-1]
    lines = np.rec.fromarrays((freq, amp, np.arange(2048)), names="freq_hz,amplitude,spectator")
    spec = Spectrum(spin=0, lines=lines)
    assert len(np.unique(spec.amplitudes)) == distinct
    assert spec.to_csv() == oracles.csv_reference(spec.frequencies, spec.amplitudes)


def _hand_built(count, mirrored, rng):
    """A spectrum of `count` lines, mirrored about a middle that an odd count fills with 0.0."""
    if mirrored:
        top = np.sort(rng.uniform(0.5, 100.0, count // 2))[::-1]
        freq = np.concatenate([top, np.zeros(count % 2), -top[::-1]])
    else:
        freq = rng.uniform(-100.0, 100.0, count)
    amp = rng.choice([-1.0, -0.0, 0.0, 2.5, 1 / 3], count)
    lines = np.rec.fromarrays((freq, amp, np.arange(count)), names="freq_hz,amplitude,spectator")
    return Spectrum(spin=0, lines=lines)


@pytest.mark.parametrize("mirrored", [True, False], ids=["mirrored", "plain"])
@pytest.mark.parametrize("count", [0, 1, 2, 4095, 4096, 4097, 8190, 8192, 8194, 12288])
def test_csv_bytes_hold_across_chunk_seams(count, mirrored):
    # to_csv joins rows in chunks of 4096, and the middle of a mirror is a seam:
    # these counts put rows on either side of one, or end a half just short of it.
    spec = _hand_built(count, mirrored, np.random.default_rng(count))
    assert spectra._mirrored(spec.frequencies) == (count % 2 == 0 and (mirrored or count == 0))
    assert spec.to_csv() == oracles.csv_reference(spec.frequencies, spec.amplitudes)


@pytest.mark.parametrize("pops", ["thermal", "permuted"])
@pytest.mark.parametrize("n", [13, 14, 15])
def test_csv_bytes_of_multiplets_that_span_chunks(n, pops):
    rng = np.random.default_rng(n)
    j_hz = _couplings("random", n, True, rng)
    system = SpinSystem([f"s{k}" for k in range(n)], j_hz, np.zeros(n), 1e-5)
    spec = readout(PopulationState(n=n, pops=_pops(pops, n, rng)), system, 0)
    assert spectra._mirrored(spec.frequencies)
    assert spec.to_csv() == oracles.csv_reference(spec.frequencies, spec.amplitudes)
