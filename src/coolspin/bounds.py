"""Limits on polarization transfer by closed (population-permuting) control.

States and z observables are both traceless diagonals (`PopulationState`),
so their eigenvalues are their entries and every trace product is a dot
product of two 2**n vectors. The reachable coefficient of a target is fixed
by those two spectra alone: sort both the same way and take the overlap. Any
unitary that permutes populations can do no better, and a relabeling
achieves it. For the thermal state and one spin's Iz that overlap has a
closed form, so `thermal_bound` needs no vector at all. The entropy bound
caps how many fully polarized spins any closed procedure can extract from
n equilibrium spins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import PopulationState, as_finite, as_int
from .thermo import entropy_deficit


@dataclass
class ProjectionResult:
    """Projection of a state onto a target observable, now and at best."""

    a_initial: float
    a_max: float
    enhancement: float


@dataclass
class Decomposition:
    """Split of a state into a multiple of a target plus an orthogonal rest.

    `remainder` is the 2**n diagonal of the rest, orthogonal to the target.
    """

    a: float
    b_norm: float
    remainder: np.ndarray


def _target_norm(rho: PopulationState, target: PopulationState, what: str) -> float:
    if rho.n != target.n:
        raise ValueError(f"state has {rho.n} spins but target has {target.n}")
    denom = float(target.pops @ target.pops)
    if denom == 0.0:
        raise ValueError(f"target observable is zero; {what} undefined")
    return denom


def max_projection(rho_i: PopulationState, a_target: PopulationState) -> ProjectionResult:
    """Current and best-achievable coefficient of a target observable.

    The maximum pairs the populations of the state and of the target in
    matching (descending) order; it is invariant under any permutation of
    the state's populations applied beforehand.
    """
    denom = _target_norm(rho_i, a_target, "projection")
    state_sorted = np.sort(rho_i.pops)[::-1]
    target_sorted = np.sort(a_target.pops)[::-1]
    a_max = float(state_sorted @ target_sorted) / denom
    a_initial = float(rho_i.pops @ a_target.pops) / denom
    enhancement = a_max / a_initial if a_initial != 0.0 else float("inf")
    return ProjectionResult(a_initial=a_initial, a_max=a_max, enhancement=enhancement)


def thermal_bound(n: int) -> ProjectionResult:
    """`max_projection` of the n-spin thermal state onto any one spin's Iz, in closed form.

    The thermal spectrum puts (n - 2k)/2 on comb(n, k) basis states, and the
    sorted target gives +1/2 to the upper half of them, so a_max is
    n comb(n-1, floor((n-1)/2)) / 2**(n-1) (Sørensen, Prog. NMR Spectrosc.
    21, 503 (1989)): exact integers and one correctly rounded division, at
    any n. The thermal state's own coefficient is exactly 1.
    """
    n = as_int("spin count", n, positive=True)
    a_max = n * math.comb(n - 1, (n - 1) // 2) / 2 ** (n - 1)
    return ProjectionResult(a_initial=1.0, a_max=a_max, enhancement=a_max)


def decompose(rho_f: PopulationState, a_target: PopulationState) -> Decomposition:
    """Coefficient of the target inside a state, plus the orthogonal rest.

    The coefficient is the trace inner product normalized by the target's
    norm; the remainder diagonal is exactly orthogonal to the target, so
    coefficient and rest reconstruct the state.
    """
    denom = _target_norm(rho_f, a_target, "decomposition")
    a = float(a_target.pops @ rho_f.pops) / denom
    remainder = rho_f.pops - a * a_target.pops
    return Decomposition(a=a, b_norm=float(np.linalg.norm(remainder)), remainder=remainder)


def entropy_bound_kmax(n: float, eps0: float) -> float:
    """Entropy cap on extractable fully polarized spins: n (1 - H(eps0)).

    Returned as a real number; callers choosing an integer number of spins
    should round down. n may be any positive count, including the very large
    ensemble sizes where the interesting regime lives.
    """
    if as_finite("n", n) <= 0:
        raise ValueError(f"spin count must be positive, got {n}")
    return float(n) * entropy_deficit(eps0)
