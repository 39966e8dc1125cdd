"""Limits on polarization transfer by closed (population-permuting) control.

The reachable coefficient of a target observable is fixed by the spectra of
the state and the observable alone: sort both sets of eigenvalues the same
way and take the overlap. Any unitary that permutes populations can do no
better, and a relabeling achieves it. The entropy bound caps how many fully
polarized spins any closed procedure can extract from n equilibrium spins.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import DenseState, PopulationState
from .thermo import entropy_deficit


@dataclass
class ProjectionResult:
    """Projection of a state onto a target observable, now and at best."""

    a_initial: float
    a_max: float
    enhancement: float


@dataclass
class Decomposition:
    """Split of a state into a multiple of a target plus an orthogonal rest."""

    a: float
    b_norm: float
    remainder: np.ndarray


def _eigenvalues(state: PopulationState | DenseState) -> np.ndarray:
    if isinstance(state, PopulationState):
        return state.pops
    return np.linalg.eigvalsh(state.mat)


def _trace_product(x: PopulationState | DenseState, y: PopulationState | DenseState) -> float:
    # Tr(XY); when either factor is diagonal only the other's diagonal matters.
    if isinstance(x, PopulationState) and isinstance(y, PopulationState):
        return float(x.pops @ y.pops)
    if isinstance(x, PopulationState):
        return float(x.pops @ y.mat.diagonal().real)
    if isinstance(y, PopulationState):
        return float(x.mat.diagonal().real @ y.pops)
    return float(np.trace(x.mat @ y.mat).real)


def _check_same_size(rho, target) -> None:
    if rho.n != target.n:
        raise ValueError(f"state has {rho.n} spins but target has {target.n}")


def max_projection(
    rho_i: PopulationState | DenseState,
    a_target: PopulationState | DenseState,
) -> ProjectionResult:
    """Current and best-achievable coefficient of a target observable.

    The maximum pairs the eigenvalues of the state and of the target in
    matching (descending) order; it is invariant under any unitary applied
    to the state beforehand.
    """
    _check_same_size(rho_i, a_target)
    target_eigs = _eigenvalues(a_target)
    denom = float(target_eigs @ target_eigs)
    if denom == 0.0:
        raise ValueError("target observable is zero; projection undefined")
    state_sorted = np.sort(_eigenvalues(rho_i))[::-1]
    target_sorted = np.sort(target_eigs)[::-1]
    a_max = float(state_sorted @ target_sorted) / denom
    a_initial = _trace_product(rho_i, a_target) / denom
    enhancement = a_max / a_initial if a_initial != 0.0 else float("inf")
    return ProjectionResult(a_initial=a_initial, a_max=a_max, enhancement=enhancement)


def decompose(
    rho_f: PopulationState | DenseState,
    a_target: PopulationState | DenseState,
) -> Decomposition:
    """Coefficient of the target inside a state, plus the orthogonal rest.

    The coefficient is the trace inner product normalized by the target's
    norm; the remainder (stored as a dense matrix) is exactly orthogonal to
    the target, so coefficient and rest reconstruct the state.
    """
    _check_same_size(rho_f, a_target)
    rho_mat = DenseState.from_populations(rho_f).mat if isinstance(rho_f, PopulationState) else rho_f.mat
    a_mat = DenseState.from_populations(a_target).mat if isinstance(a_target, PopulationState) else a_target.mat
    denom = float(np.vdot(a_mat, a_mat).real)
    if denom == 0.0:
        raise ValueError("target observable is zero; decomposition undefined")
    a = float(np.vdot(a_mat, rho_mat).real) / denom
    remainder = rho_mat - a * a_mat
    return Decomposition(a=a, b_norm=float(np.linalg.norm(remainder)), remainder=remainder)


def entropy_bound_kmax(n: float, eps0: float) -> float:
    """Entropy cap on extractable fully polarized spins: n (1 - H(eps0)).

    Returned as a real number; callers choosing an integer number of spins
    should round down. n may be any positive count, including the very large
    ensemble sizes where the interesting regime lives.
    """
    if n <= 0:
        raise ValueError(f"spin count must be positive, got {n}")
    return float(n) * entropy_deficit(eps0)
