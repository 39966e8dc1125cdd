"""Reversible gates as basis-state permutations, and the boost circuit.

Gate operands list controls first and the target last. The permutation
representation maps basis index i to perm[i] under the package-wide basis
convention (see `states`): with each operand's bit from `spin_bit`, an
index whose control bits are all set has its target bit flipped, or, for
FREDKIN, its two swap bits exchanged (both flipped where they differ).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import as_finite, as_int, spin_bit

PERMUTATION_KINDS = {"NOT": 1, "CNOT": 2, "TOFFOLI": 3, "FREDKIN": 3}
ROTATION_KINDS = {"RX": 1, "RY": 1, "RZ": 1, "CRY": 2, "CRZ": 2}


@dataclass
class Gate:
    """One gate: a mnemonic, operand spins (controls first), and an angle
    in degrees for rotation kinds."""

    kind: str
    spins: tuple[int, ...]
    angle_deg: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise ValueError(f"a gate kind must be a string, got {self.kind!r}")
        self.kind = self.kind.upper()
        self.spins = tuple(as_int("spin index", s) for s in self.spins)
        if self.kind in PERMUTATION_KINDS:
            arity = PERMUTATION_KINDS[self.kind]
            if self.angle_deg is not None:
                raise ValueError(f"{self.kind} takes no angle")
        elif self.kind in ROTATION_KINDS:
            arity = ROTATION_KINDS[self.kind]
            if self.angle_deg is None:
                raise ValueError(f"{self.kind} needs an angle in degrees")
            self.angle_deg = as_finite(f"{self.kind} angle", self.angle_deg)
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.spins) != arity:
            raise ValueError(f"{self.kind} takes {arity} operand(s), got {len(self.spins)}")
        if len(set(self.spins)) != len(self.spins):
            raise ValueError(f"{self.kind} operands must be distinct spins")


def _gate_images(gate: Gate, n: int, idx: np.ndarray) -> np.ndarray:
    """Images of the basis indices `idx` under a reversible gate on n spins."""
    if gate.kind not in PERMUTATION_KINDS:
        raise ValueError(f"{gate.kind} is not a basis permutation")
    if max(gate.spins) >= n:
        raise ValueError(f"gate {gate.kind}{gate.spins} does not fit in {n} spins")
    bits = [spin_bit(n, s) for s in gate.spins]
    if gate.kind == "FREDKIN":
        control, b1, b2 = bits
        flip, hit = b1 | b2, ((idx & b1) == 0) != ((idx & b2) == 0)
    else:
        *controls, flip = bits
        control, hit = sum(controls), True
    return np.where(hit & ((idx & control) == control), idx ^ flip, idx)


def gate_permutation(gate: Gate, n: int) -> np.ndarray:
    """Basis permutation of a reversible gate on n spins: i -> perm[i]."""
    return _gate_images(gate, n, np.arange(2**n, dtype=np.int64))


def circuit_permutation(gates: list[Gate], n: int) -> np.ndarray:
    """Composite permutation of a gate list applied first-to-last."""
    total = np.arange(2**n, dtype=np.int64)
    for gate in gates:
        total = _gate_images(gate, n, total)
    return total


def lower_fredkin(gate: Gate) -> list[Gate]:
    """Controlled swap as two CNOTs around a doubly controlled NOT.

    The middle gate targets the second swap operand with the first swap
    operand and the original control as its controls, which is the operand
    arrangement the pulse-level substitution expects.
    """
    if gate.kind != "FREDKIN":
        raise ValueError(f"expected a FREDKIN gate, got {gate.kind}")
    c, q1, q2 = gate.spins
    return [
        Gate("CNOT", (q2, q1)),
        Gate("TOFFOLI", (q1, c, q2)),
        Gate("CNOT", (q2, q1)),
    ]


def boost_circuit(a: int = 0, b: int = 1, c: int = 2) -> list[Gate]:
    """The five-gate polarization boost on spins (a, b, c).

    b's parity is copied onto c and inverted, then a and b are exchanged
    conditioned on c — the controlled swap already expanded via
    `lower_fredkin`. Composing the list yields the boost permutation.
    """
    if len({a, b, c}) != 3:
        raise ValueError("boost needs three distinct spins")
    return [Gate("CNOT", (b, c)), Gate("NOT", (c,))] + lower_fredkin(Gate("FREDKIN", (c, a, b)))
