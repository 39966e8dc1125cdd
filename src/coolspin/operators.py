"""Diagonal product operators in the shared basis convention."""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .states import DenseState, check_capacity, iz_diag


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


def iz_operator(n: int, spin: int) -> DenseState:
    check_capacity(n, dense=True)
    return DenseState(n=n, mat=np.diag(iz_diag(n, spin).astype(complex)))


def iz_product_operator(n: int, spins: Iterable[int]) -> DenseState:
    check_capacity(n, dense=True)
    return DenseState(n=n, mat=np.diag(iz_product_diag(n, spins).astype(complex)))
