"""Static description of a coupled spin-1/2 ensemble.

A system is a list of spin labels, the symmetric scalar-coupling matrix in
hertz, chemical shifts in ppm (used for bookkeeping and display, never for
dynamics: the simulator works in a frame rotating with each spin), and the
equilibrium polarization of a single spin. Systems are value objects loaded
from and saved to a small JSON schema; one example file ships with the
package: the three fluorine spins of bromotrifluoroethylene (C2F3Br).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .states import as_float, as_floats, as_int, as_labels, json_fields

_SYMMETRY_TOL = 1e-12
_EXAMPLE_PATH = Path(__file__).with_name("data") / "c2f3br.json"


@dataclass
class SpinSystem:
    """Labels, couplings (Hz), shifts (ppm), and equilibrium polarization."""

    labels: list[str]
    j_hz: np.ndarray
    shift_ppm: np.ndarray
    epsilon0: float

    def __post_init__(self):
        self.labels = as_labels("labels", self.labels)
        n = len(self.labels)
        if n < 1:
            raise ValueError("a spin system needs at least one spin")
        if len(set(self.labels)) != n:
            raise ValueError("spin labels must be unique")
        self.j_hz = as_floats("j_hz", self.j_hz)
        self.shift_ppm = as_floats("shift_ppm", self.shift_ppm)
        if self.j_hz.shape != (n, n):
            raise ValueError(f"j_hz must be {n}x{n}, one coupling per pair, got {self.j_hz.shape}")
        if self.shift_ppm.shape != (n,):
            raise ValueError(f"shift_ppm must hold one shift per spin, got {self.shift_ppm.shape}")
        for name in ("j_hz", "shift_ppm"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        # A spin's row sum of |J| bounds each of its line offsets. An overflow
        # here (in the sums, or in J - J.T) is refused, not warned about.
        with np.errstate(over="ignore"):
            if not np.isfinite(np.abs(self.j_hz).sum(axis=1)).all():
                raise ValueError("j_hz must have a finite sum of |J| in every row")
            scale = max(1.0, float(np.abs(self.j_hz).max()))
            if not np.abs(self.j_hz - self.j_hz.T).max() <= _SYMMETRY_TOL * scale:
                raise ValueError("coupling matrix must be symmetric")
        if not np.abs(np.diag(self.j_hz)).max() <= 0:
            raise ValueError("self-couplings must be zero")
        self.epsilon0 = as_float("epsilon0", self.epsilon0)
        if not 0.0 < self.epsilon0 < 1.0:
            raise ValueError(f"epsilon0 must lie in (0, 1), got {self.epsilon0}")

    @property
    def n(self) -> int:
        return len(self.labels)

    def spin_index(self, spin: int | str) -> int:
        """Resolve a label or integer index to an index, with range check."""
        if isinstance(spin, str):
            if spin not in self.labels:
                raise ValueError(f"unknown spin label {spin!r}; have {self.labels}")
            return self.labels.index(spin)
        idx = as_int("spin index", spin)
        if idx >= self.n:
            raise ValueError(f"spin index {idx} out of range for {self.n} spins")
        return idx

    def coupling(self, i: int | str, j: int | str) -> float:
        a, b = self.spin_index(i), self.spin_index(j)
        if a == b:
            raise ValueError("a spin has no coupling to itself")
        return float(self.j_hz[a, b])

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "j_hz": self.j_hz.tolist(),
            "shift_ppm": self.shift_ppm.tolist(),
            "epsilon0": self.epsilon0,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpinSystem":
        return cls(*json_fields("a spin system", data, ("labels", "j_hz", "shift_ppm", "epsilon0")))

    @classmethod
    def load(cls, path: str | Path) -> "SpinSystem":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")


def example_system() -> SpinSystem:
    """The bundled three-fluorine system of bromotrifluoroethylene."""
    with open(_EXAMPLE_PATH, encoding="utf-8") as fh:
        return SpinSystem.from_dict(json.load(fh))


def example_system_path() -> Path:
    """Filesystem path of the bundled example, for CLI-style consumption."""
    return _EXAMPLE_PATH
