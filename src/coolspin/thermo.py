"""Single-spin thermodynamic quantities.

The Planck and Boltzmann constants are exact by definition since the 2019
SI redefinition (BIPM, The International System of Units, 9th ed., 2019),
so they are written out here rather than taken from a constants library.
"""
from __future__ import annotations

import math

from .states import as_finite, as_polarization

_PLANCK_J_S = 6.62607015e-34
_BOLTZMANN_J_PER_K = 1.380649e-23
# h / (2 pi) in this order rounds to the same double as CODATA's hbar.
_HBAR_J_S = _PLANCK_J_S / (2 * math.pi)


def entropy_binary(eps: float) -> float:
    """Shannon entropy (bits) of one spin at polarization eps in [0, 1]."""
    eps = as_polarization("polarization", eps)
    h = 0.0
    for p in ((1.0 + eps) / 2.0, (1.0 - eps) / 2.0):
        if p > 0.0:
            h -= p * math.log2(p)
    return h


def entropy_deficit(eps: float) -> float:
    """1 - entropy_binary(eps), computed without cancellation.

    For eps near 0 the deficit is about eps**2 / (2 ln 2), some ten orders
    below the entropy itself at realistic equilibrium polarizations, so it
    is built from log1p instead of subtracting from 1.
    """
    eps = as_polarization("polarization", eps)
    if eps == 1.0:
        return 1.0
    return ((1.0 + eps) * math.log1p(eps) + (1.0 - eps) * math.log1p(-eps)) / (2.0 * math.log(2.0))


def thermal_polarization(larmor_hz: float, temperature_k: float) -> float:
    """Equilibrium polarization hbar*omega / (2 kB T) of a spin-1/2.

    Uses the exact SI values of h and kB. larmor_hz may be zero (unpolarized
    limit); temperature must be positive.
    """
    if as_finite("larmor_hz", larmor_hz) < 0:
        raise ValueError(f"Larmor frequency must be non-negative, got {larmor_hz}")
    if as_finite("temperature_k", temperature_k) <= 0:
        raise ValueError(f"temperature must be positive, got {temperature_k}")
    return _HBAR_J_S * 2.0 * math.pi * larmor_hz / (2.0 * _BOLTZMANN_J_PER_K * temperature_k)
