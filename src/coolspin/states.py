"""State containers for small spin-1/2 ensembles.

Basis convention, used everywhere in this package: a basis state of n spins
is indexed by the integer whose most significant bit is spin 0 and whose
least significant bit is spin n-1, with bit value 0 meaning the spin-up
state. Index 0 is therefore all-spins-up. This is the only module that maps
index bits to spin values: `iz_diag` gives one spin's +-1/2 over the basis,
and everything else that needs a spin's sign is built on it. Code that
permutes basis indices locates a spin's bit with `bit_position`.

Populations are kept in deviation units: the traceless part of the density
matrix in units of the high-temperature expansion parameter, so that the
thermal ensemble is exactly the sum of the single-spin z operators. True
occupation probabilities at a finite polarization are a separate
representation (`product_probabilities`) used by the exact CNOT statistics;
the two coincide only to first order in the polarization.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

MAX_POPULATION_SPINS = 24
MAX_DENSE_SPINS = 8
MAX_VERIFY_SPINS = 16
CAPACITY_ENV_VAR = "COOLSPIN_MAX_N"

TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10


def capacity_limit(default: int) -> int:
    """Spin budget for state allocation; the env var overrides both defaults."""
    raw = os.environ.get(CAPACITY_ENV_VAR)
    if raw is None:
        return default
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"{CAPACITY_ENV_VAR} must be a positive integer, got {raw!r}")
    return limit


def check_capacity(n: int, *, dense: bool = False) -> None:
    limit = capacity_limit(MAX_DENSE_SPINS if dense else MAX_POPULATION_SPINS)
    if n > limit:
        kind = "a dense matrix" if dense else "a population vector"
        raise CapacityError(
            f"{n} spins exceeds the budget of {limit} for {kind}"
            f" (override with {CAPACITY_ENV_VAR})"
        )


def _validate_n(n: int) -> int:
    if n != int(n) or n < 1:
        raise ValueError(f"spin count must be a positive integer, got {n}")
    return int(n)


@dataclass
class PopulationState:
    """A traceless diagonal: a state's deviation populations or a z-product observable."""

    n: int
    pops: np.ndarray

    def __post_init__(self):
        self.n = _validate_n(self.n)
        check_capacity(self.n)
        pops = np.asarray(self.pops, dtype=float)
        if pops.shape != (2**self.n,):
            raise ValueError(f"expected {2**self.n} populations, got shape {pops.shape}")
        if not np.isfinite(pops).all():
            raise ValueError("populations must be finite")
        # A float sum's rounding error grows with the sum of the magnitudes.
        scale = max(1.0, float(np.abs(pops).sum()))
        if not abs(float(pops.sum())) <= TRACE_TOL * scale:
            raise ValueError("populations must sum to zero (deviation units)")
        self.pops = pops

    def to_dict(self) -> dict:
        return {"n": self.n, "pops": self.pops.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "PopulationState":
        if "n" not in data or "pops" not in data:
            raise ValueError("state object needs 'n' and 'pops' fields")
        return cls(n=data["n"], pops=np.asarray(data["pops"], dtype=float))


@dataclass
class DenseState:
    """Full deviation density matrix; traceless and Hermitian by contract."""

    n: int
    mat: np.ndarray

    def __post_init__(self):
        self.n = _validate_n(self.n)
        check_capacity(self.n, dense=True)
        mat = np.asarray(self.mat, dtype=complex)
        dim = 2**self.n
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
        scale = max(1.0, float(np.abs(mat).max()))
        if not float(np.abs(mat - mat.conj().T).max()) <= HERMITICITY_TOL * scale:
            raise ValueError("matrix must be Hermitian")
        if not abs(complex(mat.trace())) <= TRACE_TOL * scale:
            raise ValueError("matrix must be traceless (deviation units)")
        self.mat = mat

    @classmethod
    def from_populations(cls, state: PopulationState) -> "DenseState":
        check_capacity(state.n, dense=True)
        return cls(n=state.n, mat=np.diag(state.pops.astype(complex)))

    def diagonal(self) -> np.ndarray:
        return self.mat.diagonal().real.copy()

    def coherence_norm(self) -> float:
        """Largest off-diagonal magnitude; zero for population-only states."""
        off = self.mat - np.diag(self.mat.diagonal())
        return float(np.abs(off).max())


@dataclass
class Unitary:
    """A 2**n by 2**n unitary, checked against U U+ = 1 at construction."""

    n: int
    mat: np.ndarray

    def __post_init__(self):
        self.n = _validate_n(self.n)
        check_capacity(self.n, dense=True)
        mat = np.asarray(self.mat, dtype=complex)
        dim = 2**self.n
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
        defect = np.abs(mat @ mat.conj().T - np.eye(dim)).max()
        if not float(defect) <= UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (defect {float(defect):.3g})")
        self.mat = mat


def bit_position(n: int, spin: int) -> int:
    """Bit position of a spin inside the basis index (spin 0 = MSB)."""
    if not 0 <= spin < n:
        raise ValueError(f"spin {spin} out of range for {n} spins")
    return n - 1 - spin


def iz_diag(n: int, spin: int) -> np.ndarray:
    """Diagonal of the z angular momentum of one spin: +-1/2 per basis state."""
    check_capacity(n)  # before the 2**n diagonal is allocated
    return _iz_diag(n, spin)


def _iz_diag(n: int, spin: int) -> np.ndarray:
    """`iz_diag` without the budget check, for callers that hold a 2**n vector already."""
    pos = bit_position(n, spin)
    # One row per setting of the spins before `spin`: 2**pos ups, then downs.
    z = np.full((1 << spin, 2 << pos), 0.5)
    z[:, 1 << pos :] = -0.5
    return z.reshape(-1)


def thermal_state(n: int) -> PopulationState:
    """Equilibrium deviation populations: the sum of every spin's Iz diagonal."""
    n = _validate_n(n)
    check_capacity(n)
    pops = np.zeros(2**n)
    for spin in range(n):
        pops += _iz_diag(n, spin)
    return PopulationState(n=n, pops=pops)


def signed_bit_sum(values: np.ndarray, n: int, spin: int) -> float:
    """Sum of entries whose bit for `spin` is 0, minus those where it is 1."""
    values = np.asarray(values)
    if values.shape != (2**n,):
        raise ValueError(f"expected {2**n} entries, got shape {values.shape}")
    return float(2.0 * (_iz_diag(n, spin) @ values))


def polarization(state: PopulationState, spin: int) -> float:
    """Polarization of one spin, in units of the equilibrium polarization.

    Normalized so the thermal ensemble reads 1.0 for every spin at every n:
    (2 / 2**n) times the signed population sum over the spin's basis bit.
    """
    return 2.0 / 2**state.n * signed_bit_sum(state.pops, state.n, spin)


def permute_vector(values: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Move entry i of a bare vector to index perm[i]."""
    values = np.asarray(values)
    perm = np.asarray(perm)
    if perm.shape != values.shape:
        raise ValueError(f"permutation shape {perm.shape} does not match {values.shape}")
    if not np.array_equal(np.sort(perm), np.arange(perm.shape[0])):
        raise ValueError("mapping is not a bijection on basis states")
    out = np.empty_like(values)
    out[perm] = values
    return out


def apply_permutation(state: PopulationState, perm: np.ndarray) -> PopulationState:
    """Relabel basis states: entry i moves to index perm[i]."""
    perm = np.asarray(perm)
    if perm.shape != (2**state.n,):
        raise ValueError(f"permutation must have {2**state.n} entries")
    return PopulationState(n=state.n, pops=permute_vector(state.pops, perm))


def apply_unitary(state: DenseState, u: Unitary) -> DenseState:
    if state.n != u.n:
        raise ValueError(f"state has {state.n} spins but unitary has {u.n}")
    return DenseState(n=state.n, mat=u.mat @ state.mat @ u.mat.conj().T)


def product_probabilities(n: int, eps: float | np.ndarray) -> np.ndarray:
    """Exact joint occupation probabilities of independent polarized spins.

    Each spin contributes (1 + eps)/2 for bit 0 and (1 - eps)/2 for bit 1.
    This is the finite-polarization representation; it reduces to the
    deviation picture only to first order in eps.
    """
    n = _validate_n(n)
    check_capacity(n)
    eps_arr = np.broadcast_to(np.asarray(eps, dtype=float), (n,))
    if np.any(eps_arr < -1.0) or np.any(eps_arr > 1.0):
        raise ValueError("polarizations must lie in [-1, 1]")
    probs = np.array([1.0])
    for e in eps_arr:
        probs = np.kron(probs, [(1.0 + e) / 2.0, (1.0 - e) / 2.0])
    return probs
