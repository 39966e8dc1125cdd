"""z-basis product operators and the unitary polarization-transfer bound."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coolspin import (
    PopulationState,
    decompose,
    entropy_bound_kmax,
    iz_diag,
    iz_operator,
    iz_product_diag,
    iz_product_operator,
    max_projection,
    thermal_bound,
    thermal_state,
)

import oracles


def test_iz_diag_matches_bit_convention():
    assert iz_diag(1, 0).tolist() == [0.5, -0.5]
    assert iz_diag(2, 0).tolist() == [0.5, 0.5, -0.5, -0.5]
    assert iz_diag(2, 1).tolist() == [0.5, -0.5, 0.5, -0.5]
    for n in range(1, 9):
        for spin in range(n):
            assert iz_diag(n, spin).tolist() == oracles.iz_diag(n, spin)
    for spin in (-1, 3):
        with pytest.raises(ValueError):
            iz_diag(3, spin)


def test_iz_product_diag_is_elementwise_product():
    got = iz_product_diag(2, (0, 1))
    assert np.array_equal(got, iz_diag(2, 0) * iz_diag(2, 1))
    with pytest.raises(ValueError):
        iz_product_diag(2, (0, 0))
    with pytest.raises(ValueError):
        iz_product_diag(2, ())


def test_iz_operators_are_traceless_diagonal_population_states():
    op = iz_operator(3, 1)
    assert isinstance(op, PopulationState)
    assert np.array_equal(op.pops, iz_diag(3, 1))
    prod = iz_product_operator(3, (0, 2))
    assert isinstance(prod, PopulationState)
    assert np.array_equal(prod.pops, iz_product_diag(3, (0, 2)))


def test_thermal_three_spin_bound_is_three_halves():
    result = max_projection(thermal_state(3), iz_operator(3, 0))
    assert result.a_initial == pytest.approx(1.0, abs=1e-12)
    assert result.a_max == pytest.approx(1.5, abs=1e-12)
    assert result.enhancement == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("n", [*range(1, 30), 1000])
def test_thermal_bound_closed_form_equals_the_rational_oracle(n):
    result = thermal_bound(n)
    assert result.a_max == oracles.thermal_projection_bound(n)
    assert (result.a_initial, result.enhancement) == (1.0, result.a_max)


def test_thermal_bound_equals_the_sorted_overlap_for_every_spin():
    # The closed form must print what the 2**n path printed, so all three fields match bit for bit.
    for n in range(1, 21):
        thermal = thermal_state(n)
        for spin in range(n):
            assert thermal_bound(n) == max_projection(thermal, iz_operator(n, spin)), (n, spin)


@pytest.mark.parametrize("n", [0, -3, 2.0, True, "3"])
def test_thermal_bound_refuses_a_spin_count_that_is_not_a_positive_integer(n):
    with pytest.raises(ValueError, match="spin count must be a positive integer"):
        thermal_bound(n)


def test_bound_accepts_population_targets():
    target = PopulationState(n=3, pops=iz_diag(3, 0))
    result = max_projection(thermal_state(3), target)
    assert result.a_max == pytest.approx(1.5, abs=1e-12)


def test_bound_agrees_with_exhaustive_search_on_random_states():
    rng = np.random.default_rng(7)
    target = PopulationState(n=2, pops=iz_diag(2, 0))
    for _ in range(25):
        pops = rng.normal(size=4)
        pops -= pops.mean()
        state = PopulationState(n=2, pops=pops)
        fast = max_projection(state, target)
        slow = oracles.max_projection_bruteforce_fast(pops, target.pops)
        assert fast.a_max == pytest.approx(slow, abs=1e-12)
        assert fast.a_initial == pytest.approx(pops @ target.pops / (target.pops @ target.pops), abs=1e-12)


def test_bound_is_invariant_under_relabeling_the_state():
    rng = np.random.default_rng(9)
    pops = rng.normal(size=8)
    pops -= pops.mean()
    target = iz_operator(3, 0)
    reference = max_projection(PopulationState(n=3, pops=pops), target).a_max
    for _ in range(10):
        perm = rng.permutation(8)
        shuffled = PopulationState(n=3, pops=pops[perm])
        assert max_projection(shuffled, target).a_max == pytest.approx(reference, abs=1e-12)


def test_bound_rejects_mismatched_sizes_and_zero_targets():
    with pytest.raises(ValueError):
        max_projection(thermal_state(2), iz_operator(3, 0))
    with pytest.raises(ValueError):
        max_projection(thermal_state(2), PopulationState(n=2, pops=np.zeros(4)))


def test_decompose_reports_coefficient_and_orthogonal_remainder():
    state = thermal_state(3)
    target = iz_operator(3, 0)
    dec = decompose(state, target)
    assert dec.a == pytest.approx(1.0, abs=1e-12)
    # remainder = rho - a * A has no overlap with A left in it.
    overlap = dec.remainder @ target.pops
    assert overlap == pytest.approx(0.0, abs=1e-12)
    assert dec.b_norm == pytest.approx(np.linalg.norm(dec.remainder), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_diagonal_bounds_match_exhaustive_search_for_every_z_product(n, seed):
    rng = np.random.default_rng(seed)
    pops = rng.normal(size=2**n)
    pops -= pops.mean()
    state = PopulationState(n=n, pops=pops)
    for k in range(1, n + 1):
        for spins in itertools.combinations(range(n), k):
            target = iz_product_operator(n, spins)
            a_max = max_projection(state, target).a_max
            assert a_max == pytest.approx(
                oracles.max_projection_bruteforce_fast(state.pops, target.pops),
                abs=1e-10,
            )
            dec = decompose(state, target)
            assert np.allclose(dec.a * target.pops + dec.remainder, state.pops, rtol=0, atol=1e-12)
            assert dec.remainder @ target.pops == pytest.approx(0.0, abs=1e-12)
            assert dec.b_norm == np.linalg.norm(dec.remainder)


def test_entropy_bound_kmax_frozen_value_and_scaling():
    assert entropy_bound_kmax(1e9, 3e-5) == pytest.approx(0.6492127684967739, rel=1e-12)
    assert entropy_bound_kmax(1e9, 3e-5) == pytest.approx(oracles.kmax(1e9, 3e-5), rel=1e-12)
    assert entropy_bound_kmax(2e9, 3e-5) == pytest.approx(2 * entropy_bound_kmax(1e9, 3e-5), rel=1e-12)
    assert entropy_bound_kmax(5.0, 1.0) == 5.0
    with pytest.raises(ValueError):
        entropy_bound_kmax(-1.0, 0.5)
    with pytest.raises(ValueError):
        entropy_bound_kmax(1e9, 2.0)
