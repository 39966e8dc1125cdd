"""The one memory budget: every engine states its working set in bytes and is refused before it allocates."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coolspin as cs
from coolspin import cli, cooling, propagator, spectra, states
from coolspin.cooling import Round
from coolspin.states import CAPACITY_ENV_VAR

MiB = 2**20


def _traced(call) -> tuple[int, int]:
    """The traced peak of `call()` above what was held before, and the most bytes it stated to the budget."""
    stated = [0]

    def spy(nbytes, what, budget=None):
        stated.append(nbytes)
        return check(nbytes, what, budget)

    check = states.check_budget
    with pytest.MonkeyPatch.context() as env:
        for module in (states, cooling, propagator, spectra):
            env.setattr(module, "check_budget", spy)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return peak, max(stated)


def _chain(n: int) -> cs.SpinSystem:
    j_hz = np.diag(np.linspace(20.0, 90.0, n - 1), 1)
    return cs.SpinSystem([f"q{k}" for k in range(n)], j_hz + j_hz.T, np.zeros(n), 1e-4)


def _coupled(n: int) -> cs.SpinSystem:
    j_hz = np.triu(np.add.outer(np.arange(n), np.arange(n)) + 10.0, 1)
    return cs.SpinSystem([f"q{k}" for k in range(n)], j_hz + j_hz.T, np.zeros(n), 1e-4)


def _boost_sequence(n: int):
    return cs.compile_circuit(cs.CircuitIR(n, cs.boost_circuit()), _coupled(n))


@st.composite
def _hand_plans(draw):
    """A plan of random disjoint triples on at most 14 spins: clusters of up to 14 spins."""
    n = draw(st.integers(min_value=3, max_value=14))
    rounds = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        spins = draw(st.permutations(range(n)))
        k = draw(st.integers(min_value=1, max_value=n // 3))
        rounds.append(Round(triples=[spins[3 * i : 3 * i + 3] for i in range(k)], pool_eps=[0.2] * k))
    return cs.CoolingPlan(n=n, eps0=0.2, target_eps=1.0, recycle=False, rounds=rounds, predicted_best=0.2)


def _planned(log_n: int, recycle: bool) -> cs.CoolingPlan:
    target = 1e-5
    for _ in range(log_n):
        target = cs.boost_exact(target).eps_a
    return cs.plan_rounds(3**log_n, 1e-5, 0.99 * target, recycle=recycle)


# Each engine, as a strategy of calls on small inputs (stated bytes up to a few MiB).
_ENGINES = {
    "population": st.one_of(
        st.integers(1, 18).map(lambda n: lambda: cs.thermal_state(n)),
        st.integers(2, 18).map(lambda n: lambda: states.iz_product_diag(n, [0, n - 1])),
    ),
    "clusters": _hand_plans().map(
        lambda plan: lambda: cooling._replay_clusters(
            plan.eps0, np.concatenate([rnd.triples for rnd in plan.rounds]), states.memory_budget()
        )
    ),
    "dense": st.one_of(
        st.integers(3, 7).map(lambda n: (lambda seq: lambda: cs.simulate_sequence(seq))(_boost_sequence(n))),
        st.integers(1, 8).map(lambda n: lambda: cs.permutation_unitary(np.roll(np.arange(2**n), 1))),
    ),
    "verification": st.integers(3, 13).map(
        lambda n: (lambda seq: lambda: cs.verify_permutation(seq, cs.circuit_permutation(cs.boost_circuit(), n)))(
            _boost_sequence(n)
        )
    ),
    "approx replay": st.tuples(st.integers(1, 10), st.booleans()).map(
        lambda args: (lambda plan: lambda: cooling._replay_approx(plan))(_planned(*args))
    ),
    # A copy is not certified, so the walk runs; recycled copies hold large shared histories.
    "exact walk": st.tuples(st.integers(1, 7), st.booleans()).map(
        lambda args: (lambda plan: lambda: cooling._replay_exact(plan))(dataclasses.replace(_planned(*args)))
    ),
}


@pytest.mark.parametrize("engine", list(_ENGINES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_each_engine_peaks_within_twice_its_stated_bytes(engine, data):
    call = data.draw(_ENGINES[engine], label="call")
    peak, stated = _traced(call)
    assert stated > 0  # the engine stated its bytes
    assert peak <= 2 * stated + MiB, (peak, stated)


def test_each_cluster_merge_holds_what_it_states(monkeypatch):
    # A chain of triples grows one 19-spin cluster of 4 MiB; the next triple
    # merges it again and drops three spins. A merge holds its outer product and
    # a contiguous copy, boosted in place, and the kept cluster is copied out, so
    # the merge's whole output does not outlive it. From one budget check to the
    # next, the traced peak stays within the bytes stated at the first, but for
    # numpy's ufunc buffers (up to 3 x 64 KiB).
    chain = [(2 * j, 2 * j + 1, 2 * j + 2) for j in range(9)]
    closers = [(0, 1, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12), (13, 14, 15), (16, 17, 18), (17, 18, 2)]
    triples = np.array(chain + closers)
    peak, stated = _traced(lambda: cooling._replay_clusters(0.01, triples, states.memory_budget()))
    assert peak <= 2 * stated + MiB, (peak, stated)
    assert stated == 8 * (2**19 + 2 * 2**19)  # the second 19-spin merge, with its part live

    merges, check = [], states.check_budget

    def spy(nbytes, what, budget=None):
        if merges:
            merges[-1][1] = tracemalloc.get_traced_memory()[1] - before
        merges.append([nbytes, 0])
        tracemalloc.reset_peak()
        return check(nbytes, what, budget)

    monkeypatch.setattr(cooling, "check_budget", spy)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cooling._replay_clusters(0.01, triples, states.memory_budget())
        merges[-1][1] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(merges) == len(triples)
    assert all(peak <= nbytes + MiB // 4 for nbytes, peak in merges), merges


def test_a_dense_matrix_of_20_spins_is_refused_before_anything_is_allocated(monkeypatch):
    # COOLSPIN_MAX_N = 20 allows a 20-spin population vector (8 MiB), but the
    # 2**20 x 2**20 matrix needs 48 * 4**20 bytes: 48 TiB.
    monkeypatch.setenv(CAPACITY_ENV_VAR, "20")
    seq = cs.PulseSequence(_chain(20), [])
    refused = []
    peak, stated = _traced(lambda: refused.append(pytest.raises(cs.CapacityError, cs.simulate_sequence, seq)))
    assert str(refused[0].value).startswith("a dense matrix of 20 spins needs 52776558133248 bytes")
    assert (stated, peak < 64 * 1024) == (48 * 4**20, True)


def test_permutation_unitary_checks_the_budget_before_its_matrix():
    # 2**11 entries: the 2**11 x 2**11 matrix would take 64 MiB, and its check 192 MiB.
    perm = np.roll(np.arange(2**11), 1)
    peak, stated = _traced(lambda: pytest.raises(cs.CapacityError, cs.permutation_unitary, perm))
    assert stated == 48 * 4**11
    assert peak < MiB


def test_line_frequencies_check_the_budget(monkeypatch):
    system = _coupled(12)
    assert len(cs.line_frequencies(system, 0)) == 2**11
    # 2**11 lines at 48 bytes each are 96 KiB, over a budget of 8 KiB.
    monkeypatch.setenv(CAPACITY_ENV_VAR, "10")
    with pytest.raises(cs.CapacityError, match="the 11-spectator multiplet of 12 spins needs 98304 bytes"):
        cs.line_frequencies(system, 0)
    monkeypatch.setenv(CAPACITY_ENV_VAR, "15")  # 256 KiB
    assert len(cs.line_frequencies(system, "q3")) == 2**11


def test_compile_skips_verification_before_the_permutation_is_built(monkeypatch, tmp_path, capsys):
    # The 2**30 permutation indices alone would take 8 GiB.
    calls = []
    monkeypatch.setattr(cli, "circuit_permutation", lambda *args: calls.append(args))
    with pytest.raises(cs.CapacityError, match="verification of 30 spins needs 257698037760 bytes"):
        propagator.check_verification(30)
    _chain(30).save(tmp_path / "sys30.json")
    assert cli.main(["compile", "--system", str(tmp_path / "sys30.json")]) == 0
    assert "verification: SKIPPED (system too large to verify)" in capsys.readouterr().out.splitlines()
    assert calls == []
