"""State containers, basis conventions, and the spin-system value object."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coolspin import (
    CapacityError,
    DenseState,
    PopulationState,
    SpinSystem,
    Unitary,
    apply_permutation,
    apply_unitary,
    example_system,
    example_system_path,
    iz_product_diag,
    permute_vector,
    polarization,
    product_probabilities,
    readout,
    thermal_state,
)
from coolspin.propagator import _delay_phases
from coolspin.states import (
    CAPACITY_ENV_VAR,
    MAX_DENSE_SPINS,
    MAX_POPULATION_SPINS,
    MAX_VERIFY_SPINS,
    bit_position,
    capacity_limit,
    iz_diag,
    signed_bit_sum,
)

import oracles


def test_bit_position_spin_zero_is_most_significant():
    assert bit_position(3, 0) == 2
    assert bit_position(3, 2) == 0
    with pytest.raises(ValueError):
        bit_position(3, 3)


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
    j_hz = np.triu(rng.uniform(-150.0, 150.0, (n, n)) * (rng.random((n, n)) < 0.7), 1)
    j_hz = j_hz + j_hz.T
    system = SpinSystem([f"s{k}" for k in range(n)], j_hz, np.zeros(n), 1e-5)
    seconds = float(rng.uniform(1e-4, 1e-1))

    assert iz_diag(n, spin).tolist() == oracles.iz_diag(n, spin)
    assert signed_bit_sum(values, n, spin) == oracles.signed_sum(values.tolist(), n, spin)
    offsets = oracles.line_offsets(j_hz.tolist(), spin)
    lines = readout(thermal_state(n), system, spin).lines
    assert len(lines) == len(offsets)
    assert all(line.freq_hz == offsets[line.spectator] for line in lines)
    angles = np.array(oracles.delay_angles(j_hz.tolist(), seconds))
    assert np.array_equal(_delay_phases(system, seconds), np.exp(-1.0j * angles))


def test_thermal_polarization_is_one_for_every_spin():
    for n in (1, 2, 3, 5):
        state = thermal_state(n)
        for spin in range(n):
            assert polarization(state, spin) == 1.0


def test_signed_bit_sum_counts_spin_up_minus_spin_down():
    values = np.arange(4, dtype=float)
    # Spin 0 is the high bit: indices 0,1 up; 2,3 down.
    assert signed_bit_sum(values, 2, 0) == (0 + 1) - (2 + 3)
    assert signed_bit_sum(values, 2, 1) == (0 + 2) - (1 + 3)


def test_population_state_rejects_wrong_shape_and_nonzero_sum():
    with pytest.raises(ValueError, match="populations"):
        PopulationState(n=2, pops=np.zeros(3))
    with pytest.raises(ValueError, match="sum to zero"):
        PopulationState(n=1, pops=np.array([1.0, 0.5]))


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


def test_population_state_round_trips_through_dict():
    state = thermal_state(2)
    again = PopulationState.from_dict(state.to_dict())
    assert again.n == 2
    assert np.array_equal(again.pops, state.pops)


def test_dense_state_rejects_non_hermitian_and_traceful_input():
    with pytest.raises(ValueError, match="Hermitian"):
        DenseState(n=1, mat=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="traceless"):
        DenseState(n=1, mat=np.eye(2))


def test_dense_state_from_populations_and_coherence_norm():
    dense = DenseState.from_populations(thermal_state(2))
    assert dense.coherence_norm() == 0.0
    assert np.array_equal(dense.diagonal(), thermal_state(2).pops)


def test_unitary_rejects_non_unitary_matrix():
    with pytest.raises(ValueError, match="not unitary"):
        Unitary(n=1, mat=np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_capacity_limits_and_env_override(monkeypatch):
    monkeypatch.delenv(CAPACITY_ENV_VAR, raising=False)
    assert capacity_limit(MAX_POPULATION_SPINS) == 24
    assert capacity_limit(MAX_DENSE_SPINS) == 8
    assert capacity_limit(MAX_VERIFY_SPINS) == 16
    with pytest.raises(CapacityError):
        thermal_state(25)
    with pytest.raises(CapacityError):
        DenseState(n=9, mat=np.zeros((512, 512)))

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


def test_apply_unitary_conjugates():
    x = Unitary(n=1, mat=np.array([[0, 1], [1, 0]], dtype=complex))
    state = DenseState(n=1, mat=np.diag([0.5, -0.5]).astype(complex))
    flipped = apply_unitary(state, x)
    assert np.allclose(flipped.mat, np.diag([-0.5, 0.5]))
    with pytest.raises(ValueError, match="spins"):
        apply_unitary(state, Unitary(n=2, mat=np.eye(4, dtype=complex)))


def test_product_probabilities_scalar_and_per_spin():
    eps = 0.5
    probs = product_probabilities(1, eps)
    assert probs.tolist() == [0.75, 0.25]
    probs = product_probabilities(2, [1.0, 0.0])
    assert probs.tolist() == [0.5, 0.5, 0.0, 0.0]
    assert product_probabilities(3, eps).sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        product_probabilities(1, 1.5)


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


def test_spin_system_lookup_and_round_trip(tmp_path):
    system = example_system()
    assert system.labels == ["a", "b", "c"]
    assert system.n == 3
    assert system.spin_index("b") == 1
    assert system.spin_index(2) == 2
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
