"""Reversible gates as basis permutations."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coolspin import (
    Gate,
    boost_circuit,
    circuit_permutation,
    gate_permutation,
    lower_fredkin,
)

import oracles


def bits_of(index, n):
    return tuple((index >> (n - 1 - k)) & 1 for k in range(n))


def index_of(bits):
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


def test_gate_validation():
    with pytest.raises(ValueError, match="unknown gate kind"):
        Gate("SWAP", (0, 1))
    with pytest.raises(ValueError, match="operand"):
        Gate("CNOT", (0,))
    with pytest.raises(ValueError, match="distinct"):
        Gate("TOFFOLI", (0, 1, 1))
    with pytest.raises(ValueError, match="no angle"):
        Gate("NOT", (0,), angle_deg=90.0)
    with pytest.raises(ValueError, match="needs an angle"):
        Gate("RY", (0,))
    for kind, spins in (("NOT", (-1,)), ("NOT", (0.7,)), ("CNOT", (True, 0))):
        with pytest.raises(ValueError, match="spin index must be a non-negative integer"):
            Gate(kind, spins)
    assert Gate("CNOT", (np.int64(1), np.uint8(0))).spins == (1, 0)
    for angle in (True, "90", [90.0]):
        with pytest.raises(ValueError, match="RY angle must be a number"):
            Gate("RY", (0,), angle_deg=angle)
    assert Gate("ry", (0,), angle_deg=np.float32(90)).angle_deg == 90.0
    for kind in (5, None, b"NOT"):
        with pytest.raises(ValueError, match="a gate kind must be a string"):
            Gate(kind, (0,))


def test_rotation_gates_have_no_permutation():
    with pytest.raises(ValueError, match="not a basis permutation"):
        gate_permutation(Gate("RY", (0,), angle_deg=90.0), 2)
    with pytest.raises(ValueError, match="does not fit"):
        gate_permutation(Gate("NOT", (2,)), 2)


def test_cnot_matches_bitwise_oracle():
    perm = gate_permutation(Gate("CNOT", (0, 1)), 2)
    for i in range(4):
        expected = index_of(oracles.cnot(bits_of(i, 2), 0, 1))
        assert perm[i] == expected


def test_toffoli_and_fredkin_match_bitwise_oracles():
    tof = gate_permutation(Gate("TOFFOLI", (0, 1, 2)), 3)
    fred = gate_permutation(Gate("FREDKIN", (0, 1, 2)), 3)
    for i in range(8):
        assert tof[i] == index_of(oracles.toffoli(bits_of(i, 3), 0, 1, 2))
        assert fred[i] == index_of(oracles.fredkin(bits_of(i, 3), 0, 1, 2))


_BIT_ORACLES = {
    "NOT": oracles.not_gate,
    "CNOT": oracles.cnot,
    "TOFFOLI": oracles.toffoli,
    "FREDKIN": oracles.fredkin,
}


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    kind=st.sampled_from(list(_BIT_ORACLES)),
    data=st.data(),
)
def test_every_gate_is_a_self_inverse_bijection(n, kind, data):
    from coolspin.gates import PERMUTATION_KINDS

    arity = PERMUTATION_KINDS[kind]
    if arity > n:
        n = arity
    spins = tuple(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=arity,
                max_size=arity,
                unique=True,
            )
        )
    )
    perm = gate_permutation(Gate(kind, spins), n)
    assert np.array_equal(np.sort(perm), np.arange(2**n))
    assert np.array_equal(perm[perm], np.arange(2**n))
    # Any operand order, e.g. a control after its target or FREDKIN with q1 > q2.
    want = [index_of(_BIT_ORACLES[kind](bits_of(i, n), *spins)) for i in range(2**n)]
    assert perm.tolist() == want


def test_circuit_permutation_composes_first_to_last():
    n = 2
    gates = [Gate("NOT", (1,)), Gate("CNOT", (1, 0))]
    composed = circuit_permutation(gates, n)
    step1 = gate_permutation(gates[0], n)
    step2 = gate_permutation(gates[1], n)
    assert np.array_equal(composed, step2[step1])
    assert np.array_equal(circuit_permutation([], n), np.arange(4))


def test_lower_fredkin_reproduces_the_controlled_swap():
    gate = Gate("FREDKIN", (2, 0, 1))
    direct = gate_permutation(gate, 3)
    lowered = circuit_permutation(lower_fredkin(gate), 3)
    assert np.array_equal(direct, lowered)
    with pytest.raises(ValueError, match="FREDKIN"):
        lower_fredkin(Gate("CNOT", (0, 1)))


def test_boost_circuit_permutation_is_frozen():
    perm = circuit_permutation(boost_circuit(), 3)
    assert perm.tolist() == [1, 0, 2, 5, 3, 4, 6, 7]
    # Bitwise oracle built from the same gate list, fully independently.
    for i in range(8):
        assert perm[i] == index_of(oracles.boost_output(bits_of(i, 3)))


def test_boost_circuit_on_relabeled_spins():
    with pytest.raises(ValueError, match="distinct"):
        boost_circuit(0, 0, 1)
    perm_default = circuit_permutation(boost_circuit(0, 1, 2), 3)
    perm_swapped = circuit_permutation(boost_circuit(2, 1, 0), 3)
    # Conjugating by the relabeling that exchanges spins 0 and 2 must map
    # one permutation onto the other.
    relabel = np.array([index_of(bits_of(i, 3)[::-1]) for i in range(8)])
    assert np.array_equal(relabel[perm_default[np.argsort(relabel)]], perm_swapped)
