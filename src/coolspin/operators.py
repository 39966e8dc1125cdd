"""z and z-product observables as traceless diagonals (`PopulationState`)."""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .states import PopulationState, check_capacity, iz_diag


def iz_product_diag(n: int, spins: Iterable[int]) -> np.ndarray:
    """Diagonal of a product of Iz factors, e.g. Iz^a Iz^c."""
    spins = list(spins)
    if len(spins) != len(set(spins)):
        raise ValueError("product factors must be distinct spins")
    if not spins:
        raise ValueError("need at least one factor")
    out = np.ones(2**n)
    for s in spins:
        out = out * iz_diag(n, s)
    return out


def iz_operator(n: int, spin: int) -> PopulationState:
    """One spin's Iz as a traceless diagonal: +-1/2 per basis state."""
    check_capacity(n)  # before the 2**n diagonal is allocated
    return PopulationState(n=n, pops=iz_diag(n, spin))


def iz_product_operator(n: int, spins: Iterable[int]) -> PopulationState:
    """A product of distinct spins' Iz as a traceless diagonal."""
    check_capacity(n)
    return PopulationState(n=n, pops=iz_product_diag(n, spins))
