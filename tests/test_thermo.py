"""Single-spin entropy and equilibrium polarization."""
import math

import numpy as np
import pytest

from coolspin import entropy_binary, entropy_deficit, thermal_polarization

import oracles


def test_entropy_endpoints():
    assert entropy_binary(0.0) == 1.0
    assert entropy_binary(1.0) == 0.0
    assert entropy_deficit(0.0) == 0.0
    assert entropy_deficit(1.0) == 1.0


def test_entropy_matches_direct_formula_at_moderate_polarization():
    for eps in (0.1, 0.5, 0.9):
        p = (1 + eps) / 2
        direct = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        assert entropy_binary(eps) == pytest.approx(direct, abs=1e-15)
        assert entropy_deficit(eps) == pytest.approx(1 - direct, rel=1e-12)


def test_entropy_deficit_keeps_signal_at_tiny_polarization():
    # Around eps = 3e-5 the deficit is ~6.5e-10; the small-eps expansion
    # eps**2 / (2 ln 2) must agree to leading order, which a naive
    # 1 - entropy_binary(eps) computation cannot resolve.
    eps = 3e-5
    assert entropy_deficit(eps) == pytest.approx(eps**2 / (2 * math.log(2)), rel=1e-8)


def test_entropy_rejects_out_of_range():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            entropy_binary(bad)
        with pytest.raises(ValueError):
            entropy_deficit(bad)


def test_thermal_polarization_value_and_scaling():
    eps = thermal_polarization(470e6, 300.0)
    assert eps == pytest.approx(oracles.thermal_polarization(470e6, 300.0), rel=1e-9)
    assert eps == pytest.approx(3.8e-5, rel=0.05)
    assert thermal_polarization(940e6, 300.0) == pytest.approx(2 * eps, rel=1e-12)
    assert thermal_polarization(470e6, 150.0) == pytest.approx(2 * eps, rel=1e-12)
    assert thermal_polarization(0.0, 300.0) == 0.0


def test_thermal_polarization_matches_the_codata_formula_bit_for_bit():
    constants = pytest.importorskip("scipy.constants")
    rng = np.random.default_rng(2019)
    larmor = 10 ** rng.uniform(0.0, 12.0, 2000)
    temperature = 10 ** rng.uniform(-3.0, 4.0, 2000)
    for f, t in zip(larmor.tolist(), temperature.tolist()):
        want = constants.hbar * 2.0 * math.pi * f / (2.0 * constants.k * t)
        assert thermal_polarization(f, t) == want


def test_thermal_polarization_rejects_bad_arguments():
    with pytest.raises(ValueError):
        thermal_polarization(-1.0, 300.0)
    with pytest.raises(ValueError):
        thermal_polarization(470e6, 0.0)
