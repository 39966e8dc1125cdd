"""State containers for small spin-1/2 ensembles, and the input readers, file reader and file writer all modules share.

`PopulationState` is the package's one state type: a traceless diagonal in
deviation units, for states and z observables alike. `Unitary` is the dense
2**n matrix that the pulse-sequence oracle builds and checks.

Basis convention, used everywhere in this package: a 2**n vector is the
C-order flattening of a (2,)*n tensor whose axis s is spin s, with index 0
on an axis meaning the spin points up. So spin 0 is the most significant
bit of a basis index, and index 0 is all-spins-up. This module is the only
one that knows it, through three objects: `IZ`, one spin's Iz with up
first, `spin_axis`, the view of a 2**n vector (or a block of them) whose
middle axis is one spin, and `spin_bit`, the bit a spin sets in a basis
index when it points down. The boost's 8-entry correlator basis in `cooling`
follows the same rule.

Populations are kept in deviation units: the traceless part of the density
matrix in units of the high-temperature expansion parameter, so that the
thermal ensemble is exactly the sum of the single-spin z operators. At a
finite polarization the package works with Z correlators instead (see
`cooling`), where a spin at eps is (1, eps) to all orders.
"""
from __future__ import annotations

import math
import os
import stat
from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from numbers import Real

import numpy as np

from .errors import CapacityError

CAPACITY_ENV_VAR = "COOLSPIN_MAX_N"

TRACE_TOL = 1e-12
_CHUNK = 1 << 16  # entries per slice when a 2**n vector is reduced piecewise
UNITARITY_TOL = 1e-10

IZ = np.array([0.5, -0.5])  # one spin's Iz over its two states, up first


def memory_budget() -> int:
    """The byte budget, read when an engine runs: 8 * 2**N, N = COOLSPIN_MAX_N (default 24: 128 MiB; past 64: 64)."""
    raw = os.environ.get(CAPACITY_ENV_VAR, "24")
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"{CAPACITY_ENV_VAR} must be a positive integer, got {raw!r}")
    return 8 << min(limit, 64)


def check_budget(nbytes: int, what: str, budget: int | None = None) -> None:
    """Raise CapacityError if `what` needs more than `budget` bytes (`memory_budget()` if None).

    Each engine states its working set in its input's shape before it allocates;
    a spin count n from outside enters as min(n, 65), past every budget.
    """
    budget = memory_budget() if budget is None else budget
    if nbytes > budget:
        raise CapacityError(
            f"{what} needs {nbytes} bytes, over the budget of {budget} (override with {CAPACITY_ENV_VAR})"
        )


def _numeric(name: str, values, kinds: str, what: str) -> np.ndarray:
    """`values` (a scalar, nested lists or an array) as an array of a dtype kind in `kinds`.

    An empty array passes whatever dtype numpy infers for it. A list may hold
    no boolean: strings, booleans, nulls and JSON objects are refused instead
    of being cast, and so are floats where only integers are wanted.
    """
    try:
        array = np.asarray(values)
    except ValueError:  # numpy refuses ragged nested lists
        raise ValueError(f"{name} must hold lists of equal length, not a ragged nesting") from None
    # numpy reads a boolean among numbers as 0 or 1; only a list or tuple, not an array, holds one.
    leaves = values if isinstance(values, (list, tuple)) else ()
    for _ in range(array.ndim - 1):
        leaves = chain.from_iterable(leaves)
    if (array.size and array.dtype.kind not in kinds) or bool in set(map(type, leaves)):
        raise ValueError(f"{name} must hold {what}, nulls or objects")
    return array


def as_floats(name: str, values) -> np.ndarray:
    """Numbers (a scalar or nested lists) as a float array, in one pass for floats."""
    return _numeric(name, values, "iuf", "numbers only, not strings, booleans").astype(float, copy=False)


def as_ints(name: str, values) -> np.ndarray:
    """Integers (nested lists or an array) as an `intp` array; a float is refused, not truncated."""
    return _numeric(name, values, "iu", "integers only, not floats, strings, booleans").astype(np.intp, copy=False)


def as_float(name: str, value) -> float:
    """One number as a float (floats pass at once); a bool, a string or another type is refused."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def as_finite(name: str, value) -> float:
    """One finite number as a float: NaN and +-inf are refused after `as_float`'s checks."""
    value = as_float(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def as_duration(name: str, value) -> float:
    """One finite, nonnegative number of seconds as a float, after `as_float`'s checks."""
    value = as_float(name, value)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return value


def as_polarization(name: str, value) -> float:
    """One number in [0, 1] as a float (NaN is refused too)."""
    value = as_float(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def as_permutation(perm, size: int) -> np.ndarray:
    """`perm` as a (size,) intp array mapping 0..size-1 onto itself; floats and booleans are refused."""
    array = np.asarray(perm)
    listed = perm if isinstance(perm, (list, tuple)) else ()  # numpy reads a bool there as 0 or 1
    if not np.issubdtype(array.dtype, np.integer) or bool in set(map(type, listed)):
        raise ValueError(f"permutation entries must be integers, not floats or booleans, got {perm!r:.80}")
    if array.shape != (size,):
        raise ValueError(f"permutation must have {size} entries, got shape {array.shape}")
    if not np.array_equal(np.sort(array), np.arange(size)):
        raise ValueError("mapping is not a bijection on basis states")
    return array.astype(np.intp, copy=False)


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


def read_text(path) -> str:
    """The text of the file at `path`, decoded as UTF-8 whatever the locale.

    The bytes are decoded once, with no text wrapper or newline
    translation; invalid UTF-8 raises UnicodeDecodeError, a ValueError. A
    UTF-8 BOM is kept, so `json.loads` still refuses it.
    """
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8")


def write_in_place(path, text: str) -> None:
    """Write `text`, encoded as UTF-8, to `path`, rewriting an existing file in place.

    The bytes go out through `os.write`, looped until every one is written,
    with no text wrapper. Opening without O_TRUNC keeps the inode, so links,
    owner and mode stay as they were; a regular file is then cut to the
    encoded length. On ext4, a file truncated on open has its new blocks
    allocated and written back at once (`auto_da_alloc`), a wait that a
    small `--out` command would pay on every rewrite. Neither way calls
    fsync: after a crash a file written in the last seconds may hold its old
    bytes or a mix. A failed write empties a regular file, so no old tail
    ever follows new bytes. A device or FIFO (/dev/null, /dev/full) cannot be
    truncated and is only written.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            data = text.encode("utf-8")
            rest = memoryview(data)
            while rest:
                rest = rest[os.write(fd, rest) :]
            if regular:
                os.ftruncate(fd, len(data))
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


@dataclass
class PopulationState:
    """A traceless diagonal: a state's deviation populations or a z-product observable."""

    n: int
    pops: np.ndarray

    def __post_init__(self):
        self.n = as_int("spin count", self.n, positive=True)
        check_budget(8 << min(self.n, 65), f"a population vector of {self.n} spins")
        pops = as_floats("pops", self.pops)
        if pops.shape != (2**self.n,):
            raise ValueError(f"pops must hold {2**self.n} populations, got shape {pops.shape}")
        # A finite sum of magnitudes bounds every sum and difference of pops
        # that readout and polarization take, and a float sum's rounding error.
        # It is summed in chunks, so no second 2**n vector is built.
        with np.errstate(over="ignore"):
            scale = sum(float(np.abs(pops[i : i + _CHUNK]).sum()) for i in range(0, len(pops), _CHUNK))
        if not math.isfinite(scale):
            raise ValueError("pops must be finite populations whose magnitudes have a finite sum")
        if not abs(float(pops.sum())) <= TRACE_TOL * max(1.0, scale):
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
        check_dense(self.n)
        mat = np.asarray(self.mat, dtype=complex)
        dim = 2**self.n
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
        defect = np.abs(mat @ mat.conj().T - np.eye(dim)).max()
        if not float(defect) <= UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (defect {float(defect):.3g})")
        self.mat = mat


def check_dense(n: int) -> None:
    """Refuse a 2**n x 2**n complex matrix past the budget: with a second and third one, its check's peak."""
    check_budget(48 << 2 * min(n, 65), f"a dense matrix of {n} spins")


def spin_axis(values: np.ndarray, spin: int) -> np.ndarray:
    """View of a (2**n, ...) array as (2**spin, 2, rest), whose middle axis is `spin`."""
    n = values.shape[0].bit_length() - 1
    if not 0 <= spin < n:
        raise ValueError(f"spin {spin} out of range for {n} spins")
    return values.reshape(1 << spin, 2, -1)


def spin_bit(n: int, spin: int) -> int:
    """The basis-index bit that is set where `spin` of n points down."""
    if not 0 <= spin < n:
        raise ValueError(f"spin {spin} out of range for {n} spins")
    return 1 << (n - 1 - spin)


def iz_diag(n: int, spin: int) -> np.ndarray:
    """Diagonal of the z angular momentum of one spin: +-1/2 per basis state."""
    check_budget(8 << min(n, 65), f"a population vector of {n} spins")  # before the 2**n diagonal
    z = np.empty(2**n)
    spin_axis(z, spin)[...] = IZ[:, None]
    return z


def iz_product_diag(n: int, spins: Iterable[int]) -> np.ndarray:
    """Diagonal of a product of Iz factors, e.g. Iz^a Iz^c."""
    spins = list(spins)
    if len(spins) != len(set(spins)):
        raise ValueError("product factors must be distinct spins")
    if not spins:
        raise ValueError("need at least one factor")
    out = iz_diag(n, spins[0])  # checks the budget before the first 2**n diagonal
    for s in spins[1:]:
        out *= iz_diag(n, s)
    return out


def iz_operator(n: int, spin: int) -> PopulationState:
    """One spin's Iz as a traceless diagonal: +-1/2 per basis state."""
    return PopulationState(n=n, pops=iz_diag(n, spin))


def iz_product_operator(n: int, spins: Iterable[int]) -> PopulationState:
    """A product of distinct spins' Iz as a traceless diagonal."""
    return PopulationState(n=n, pops=iz_product_diag(n, spins))


def thermal_state(n: int) -> PopulationState:
    """Equilibrium deviation populations: the sum of every spin's Iz diagonal."""
    n = as_int("spin count", n, positive=True)
    check_budget(8 << min(n, 65), f"a population vector of {n} spins")
    return PopulationState(n=n, pops=reduce(np.add.outer, [IZ] * n).reshape(-1))


def polarization(state: PopulationState, spin: int) -> float:
    """Polarization of one spin, in units of the equilibrium polarization.

    Normalized so the thermal ensemble reads 1.0 for every spin at every n:
    (2 / 2**n) times the spin-up minus spin-down population sum.
    """
    p = spin_axis(state.pops, spin)
    return 2.0 / 2**state.n * float((p[:, 0] - p[:, 1]).sum())


def permute_vector(values: np.ndarray, perm) -> np.ndarray:
    """Move entry i of a bare vector to index perm[i]."""
    out = np.empty_like(values)
    out[as_permutation(perm, len(values))] = values
    return out


def apply_permutation(state: PopulationState, perm) -> PopulationState:
    """Relabel basis states: entry i moves to index perm[i]."""
    return PopulationState(n=state.n, pops=permute_vector(state.pops, perm))
