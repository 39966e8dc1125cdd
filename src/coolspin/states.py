"""State containers for small spin-1/2 ensembles, and the JSON readers all loaders share.

`PopulationState` is the package's one state type: a traceless diagonal in
deviation units, for states and z observables alike. `Unitary` is the dense
2**n matrix that the pulse-sequence oracle builds and checks.

Basis convention, used everywhere in this package: a 2**n vector is the
C-order flattening of a (2,)*n tensor whose axis s is spin s, with index 0
on an axis meaning the spin points up. So spin 0 is the most significant
bit of a basis index, and index 0 is all-spins-up. This module is the only
one that knows it, through two objects: `IZ`, one spin's Iz with up first,
and `spin_axis`, the view of a 2**n vector (or a block of them) whose
middle axis is one spin. The boost's 8-entry correlator basis in `cooling`
follows the same rule.

Populations are kept in deviation units: the traceless part of the density
matrix in units of the high-temperature expansion parameter, so that the
thermal ensemble is exactly the sum of the single-spin z operators. At a
finite polarization the package works with Z correlators instead (see
`cooling`), where a spin at eps is (1, eps) to all orders.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from numbers import Real

import numpy as np

from .errors import CapacityError

MAX_POPULATION_SPINS = 24
MAX_DENSE_SPINS = 8
MAX_VERIFY_SPINS = 16
CAPACITY_ENV_VAR = "COOLSPIN_MAX_N"

TRACE_TOL = 1e-12
UNITARITY_TOL = 1e-10

IZ = np.array([0.5, -0.5])  # one spin's Iz over its two states, up first


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


def check_capacity(
    n: int, *, dense: bool = False, limit: int | None = None, kind: str | None = None
) -> None:
    """Raise CapacityError past the spin budget: `limit` if given, else read it now.

    `kind` names the budget in the message, by default the array it guards.
    """
    if limit is None:
        limit = capacity_limit(MAX_DENSE_SPINS if dense else MAX_POPULATION_SPINS)
    if n > limit:
        kind = kind or ("a dense matrix" if dense else "a population vector")
        raise CapacityError(
            f"{n} spins exceeds the budget of {limit} for {kind}"
            f" (override with {CAPACITY_ENV_VAR})"
        )


def as_floats(name: str, values) -> np.ndarray:
    """Numbers (a scalar or nested lists) as a float array, in one pass for floats.

    The inferred dtype must be numeric and a list may hold no boolean:
    strings, booleans, nulls and JSON objects are refused instead of being cast.
    """
    try:
        array = np.asarray(values)
    except ValueError:  # numpy refuses ragged nested lists
        raise ValueError(f"{name} must hold lists of equal length, not a ragged nesting") from None
    # numpy reads a boolean among numbers as 0 or 1; only a list, not an array, can hold one.
    leaves = values if isinstance(values, list) else ()
    for _ in range(array.ndim - 1):
        leaves = chain.from_iterable(leaves)
    if array.dtype.kind not in "iuf" or bool in set(map(type, leaves)):
        raise ValueError(f"{name} must hold numbers only, not strings, booleans, nulls or objects")
    return array.astype(float, copy=False)


def as_float(name: str, value) -> float:
    """One number as a float (floats pass at once); a bool, a string or another type is refused."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def as_int(name: str, value, *, positive: bool = False) -> int:
    """One integer (Python or numpy), at least 0 (1 if `positive`); a bool or a float is refused."""
    if not (type(value) is int or isinstance(value, np.integer)) or value < positive:
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be a {sign} integer, got {value!r}")
    return int(value)


def as_label(value) -> str:
    """One spin label, which must be a string: a number or a null is not one."""
    if not isinstance(value, str):
        raise ValueError(f"spin labels must be strings, got {value!r}")
    return value


def as_list(name: str, value) -> list:
    """A JSON array, refused if it is any other JSON value (a string is not split)."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON array, got {value!r:.80}")
    return value


def as_labels(name: str, values) -> list[str]:
    """A JSON array of spin labels."""
    return [as_label(value) for value in as_list(name, values)]


def json_fields(what: str, data, names: tuple[str, ...]) -> list:
    """The values of `names`, in order, in the JSON object `what` ("a plan") that holds each."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    try:
        return [data[name] for name in names]
    except KeyError:
        raise ValueError(f"{what} object missing fields: {sorted(set(names) - data.keys())}") from None


@dataclass
class PopulationState:
    """A traceless diagonal: a state's deviation populations or a z-product observable."""

    n: int
    pops: np.ndarray

    def __post_init__(self):
        self.n = as_int("spin count", self.n, positive=True)
        check_capacity(self.n)
        pops = as_floats("pops", self.pops)
        if pops.shape != (2**self.n,):
            raise ValueError(f"pops must hold {2**self.n} populations, got shape {pops.shape}")
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
        n, pops = json_fields("a state", data, ("n", "pops"))
        return cls(n=as_int("n", n, positive=True), pops=pops)


@dataclass
class Unitary:
    """A 2**n by 2**n unitary, checked against U U+ = 1 at construction."""

    n: int
    mat: np.ndarray

    def __post_init__(self):
        self.n = as_int("spin count", self.n, positive=True)
        check_capacity(self.n, dense=True)
        mat = np.asarray(self.mat, dtype=complex)
        dim = 2**self.n
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
        defect = np.abs(mat @ mat.conj().T - np.eye(dim)).max()
        if not float(defect) <= UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (defect {float(defect):.3g})")
        self.mat = mat


def spin_axis(values: np.ndarray, spin: int) -> np.ndarray:
    """View of a (2**n, ...) array as (2**spin, 2, rest), whose middle axis is `spin`."""
    n = values.shape[0].bit_length() - 1
    if not 0 <= spin < n:
        raise ValueError(f"spin {spin} out of range for {n} spins")
    return values.reshape(1 << spin, 2, -1)


def iz_diag(n: int, spin: int) -> np.ndarray:
    """Diagonal of the z angular momentum of one spin: +-1/2 per basis state."""
    check_capacity(n)  # before the 2**n diagonal is allocated
    z = np.empty(2**n)
    spin_axis(z, spin)[...] = IZ[:, None]
    return z


def thermal_state(n: int) -> PopulationState:
    """Equilibrium deviation populations: the sum of every spin's Iz diagonal."""
    n = as_int("spin count", n, positive=True)
    check_capacity(n)
    return PopulationState(n=n, pops=reduce(np.add.outer, [IZ] * n).reshape(-1))


def polarization(state: PopulationState, spin: int) -> float:
    """Polarization of one spin, in units of the equilibrium polarization.

    Normalized so the thermal ensemble reads 1.0 for every spin at every n:
    (2 / 2**n) times the spin-up minus spin-down population sum.
    """
    p = spin_axis(state.pops, spin)
    return 2.0 / 2**state.n * float((p[:, 0] - p[:, 1]).sum())


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
