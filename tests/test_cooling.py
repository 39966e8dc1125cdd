"""Exact single-boost statistics and the multi-round scheduling engine."""
import dataclasses
import json
import math
import re
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coolspin import (
    CapacityError,
    CoolingPlan,
    InfeasibleError,
    boost_exact,
    conditional_polarization_after_cnot,
    plan_rounds,
    simulate_plan,
)
from coolspin import cooling
from coolspin.cooling import GATES_PER_BOOST, Round
from coolspin.states import CAPACITY_ENV_VAR

import oracles


@settings(max_examples=300, deadline=None)
@given(eps=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_boost_marginals_match_closed_forms(eps):
    report = boost_exact(eps)
    assert report.eps_in == eps
    assert report.gate_count == GATES_PER_BOOST == 5
    assert report.eps_a == pytest.approx(eps * (3 - eps**2) / 2, abs=1e-12)
    assert report.eps_b == pytest.approx(eps * (1 + eps**2) / 2, abs=1e-12)
    assert report.eps_c == pytest.approx(-(eps**2), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(eps=st.floats(min_value=1e-12, max_value=1.0))
@example(eps=0.0)
@example(eps=1.0)
@example(eps=3e-5)
def test_boost_marginals_lie_within_4_ulp_of_the_rational_oracle(eps):
    report = boost_exact(eps)
    wants = oracles.boost_marginals_rational(Fraction(eps))
    for got, want in zip((report.eps_a, report.eps_b, report.eps_c), wants):
        assert abs(Fraction(got) - want) <= 4 * Fraction(np.spacing(abs(float(want))))


def _fixed_order_marginals(eps):
    """Rows a, b, c of `_BOOST_Z @ z`, summed term by term in the kernel's fixed order."""
    powers = [1.0, eps, eps * eps, eps * eps * eps]
    z = [powers[bin(j).count("1")] for j in range(8)]
    rows = []
    for row in cooling._BOOST_Z[cooling._MARGINALS].tolist():
        t = [m * z_j for m, z_j in zip(row, z)]
        rows.append(((t[0] + t[4]) + (t[2] + t[6])) + ((t[1] + t[5]) + (t[3] + t[7])))
    return rows


def _bits(values):
    """Raw float bits, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(eps=st.floats(min_value=-1.0, max_value=1.0))
@example(eps=0.0)
@example(eps=-0.0)
@example(eps=1.0)
@example(eps=-1.0)
@example(eps=5e-324)
@example(eps=-5e-324)
@example(eps=2.2250738585072014e-308 * (1 - 2**-52))
@example(eps=2.2250738585072014e-308)
@example(eps=1.5e-154)
@example(eps=3 * 5e-324)
@example(eps=-7 * 5e-324)
@example(eps=(2**20 + 1) * 5e-324)
def test_boost_kernel_gives_the_same_bits_on_a_float_an_array_and_the_matrix_rows(eps):
    scalar = cooling._boost_marginals(eps)
    assert all(type(x) is float for x in scalar)
    array = cooling._boost_marginals(np.array([eps, eps]))
    assert _bits(array) == [[b, b] for b in _bits(scalar)]
    if (0.5 * eps) * 2.0 == eps:  # halving eps is exact: the matrix rows' bits
        assert _bits(scalar) == _bits(_fixed_order_marginals(eps))
    else:  # a subnormal with an odd last bit: a is 3/2 eps rounded once, b and c keep their bits
        assert _bits(scalar) == _bits([1.5 * eps, *_fixed_order_marginals(eps)[1:]])
        assert scalar[0] != 0.0 and scalar[1] == 0.5 * eps


def test_the_boost_keeps_a_subnormal_polarization():
    # 3/2 of the smallest subnormal rounds to two of them; the matrix rows' order gave 0.
    report = boost_exact(5e-324)
    assert (report.eps_a, report.eps_b, report.eps_c, report.enhancement) == (1e-323, 0.0, 0.0, 2.0)
    plan = plan_rounds(27, 5e-324, 1e-323)
    assert (len(plan.rounds), plan.predicted_best) == (1, 1e-323)


def test_boost_against_independent_rational_oracle():
    for eps in (0.0, 0.25, 0.5, 0.9, 1.0):
        report = boost_exact(eps)
        want_a, want_b, want_c = oracles.boost_marginals(eps)
        assert report.eps_a == pytest.approx(want_a, abs=1e-14)
        assert report.eps_b == pytest.approx(want_b, abs=1e-14)
        assert report.eps_c == pytest.approx(want_c, abs=1e-14)


def test_boost_enhancement_limits():
    assert boost_exact(0.0).enhancement == 1.5
    assert boost_exact(0.5).enhancement == pytest.approx(1.375, abs=1e-15)
    assert boost_exact(1.0).enhancement == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        boost_exact(-0.1)
    with pytest.raises(ValueError):
        boost_exact(1.1)


def test_conditional_polarization_after_cnot():
    for eps in (0.0, 1e-5, 0.3, 0.5):
        cond0, cond1 = conditional_polarization_after_cnot(eps)
        assert cond0 == pytest.approx(2 * eps / (1 + eps**2), abs=1e-12)
        assert cond1 == 0.0
    for eps in np.linspace(0.0, 0.99, 34):
        want0, want1 = oracles.conditional_after_cnot(eps)
        cond0, cond1 = conditional_polarization_after_cnot(eps)
        assert cond0 == pytest.approx(want0, abs=1e-14)
        assert cond1 == pytest.approx(want1, abs=1e-14)
    # At full polarization the conditioning branch for a flipped control
    # never occurs; its conditional value reports as zero.
    assert conditional_polarization_after_cnot(1.0) == (1.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(eps=st.floats(min_value=1e-12, max_value=1.0))
@example(eps=0.0)
@example(eps=1.0)
def test_conditional_polarization_after_cnot_lies_within_4_ulp_of_the_rational_oracle(eps):
    cond0, cond1 = conditional_polarization_after_cnot(eps)
    want0, want1 = oracles.conditional_after_cnot(Fraction(eps))
    assert abs(Fraction(cond0) - want0) <= 4 * Fraction(np.spacing(float(want0)))
    assert cond1 == want1 == 0


def _triples(rnd):
    """A round's triples as a list of index tuples."""
    return [tuple(t) for t in rnd.triples.tolist()]


def test_plan_rounds_single_triple():
    plan = plan_rounds(3, 1e-5, 1.4e-5)
    assert len(plan.rounds) == 1
    assert _triples(plan.rounds[0]) == [(0, 1, 2)]
    assert plan.boost_gate_count == 5
    assert plan.refocus_gate_count == 0
    assert plan.total_gate_count == 5
    assert plan.predicted_best == pytest.approx(1.5e-5, rel=1e-4)


def test_plan_rounds_validation():
    with pytest.raises(ValueError, match="three spins"):
        plan_rounds(2, 1e-5, 1.4e-5)
    with pytest.raises(ValueError):
        plan_rounds(3, 0.0, 0.5)
    with pytest.raises(ValueError):
        plan_rounds(3, 1e-5, 1e-5)
    with pytest.raises(ValueError):
        plan_rounds(3, 1e-5, 1.5)


def test_plan_rounds_reports_unreachable_targets():
    with pytest.raises(InfeasibleError, match="unreachable"):
        plan_rounds(6, 1e-3, 2.2e-3)
    # n = 3 cannot go beyond one boost.
    with pytest.raises(InfeasibleError):
        plan_rounds(3, 1e-5, 2e-5)


def test_plan_two_round_cascade_structure():
    plan = plan_rounds(9, 1e-3, 0.99 * 2.25e-3)
    assert [_triples(r) for r in plan.rounds] == [
        [(0, 1, 2), (3, 4, 5), (6, 7, 8)],
        [(0, 3, 6)],
    ]
    assert plan.rounds[0].pool_eps.tolist() == [1e-3, 1e-3, 1e-3]
    assert plan.rounds[1].pool_eps[0] == pytest.approx(1.5e-3, rel=1e-5)
    assert plan.boost_gate_count == 20
    assert plan.refocus_gate_count == 12
    assert plan.total_gate_count == 32


def test_triples_within_a_round_never_share_spins():
    plan = plan_rounds(27, 1e-5, 0.99 * 1.5**3 * 1e-5)
    for rnd in plan.rounds:
        seen = [s for triple in rnd.triples for s in triple]
        assert len(seen) == len(set(seen))
        assert all(0 <= s < 27 for s in seen)


def test_recycling_reuses_partially_cooled_spins():
    plan = plan_rounds(9, 1e-3, 0.99 * 2.25e-3, recycle=True)
    assert [_triples(r) for r in plan.rounds] == [
        [(0, 1, 2), (3, 4, 5), (6, 7, 8)],
        [(0, 3, 6), (1, 4, 7)],
    ]
    # The extra triple costs gates but removes idle-spin refocusing.
    assert plan.boost_gate_count == 25
    assert plan.total_gate_count == 31


def test_plan_round_trips_through_dict():
    plan = plan_rounds(9, 1e-3, 2.2e-3, labels=list("abcdefghi"))
    again = CoolingPlan.from_dict(plan.to_dict())
    assert again.labels == tuple("abcdefghi")
    assert again.n == plan.n
    assert [_triples(r) for r in again.rounds] == [_triples(r) for r in plan.rounds]
    assert again.total_gate_count == plan.total_gate_count


def _plan_dict(labels, rounds):
    return {
        "n": len(labels), "eps0": 1e-3, "target_eps": 2e-3, "recycle": False,
        "labels": labels,
        "rounds": [{"triples": r, "pool_eps": [1e-3] * len(r)} for r in rounds],
        "boost_gate_count": 0, "refocus_gate_count": 0, "total_gate_count": 0,
        "predicted_best": 1e-3,
    }


@pytest.mark.parametrize(
    ("labels", "rounds", "message"),
    [
        (["s0", "s1", "s2"], [[["s0", "s0", "s1"]]], "round 1: spin s0 is used twice"),
        (
            [f"s{i}" for i in range(6)],
            [[["s0", "s1", "s2"], ["s3", "s4", "s5"]], [["s0", "s3", "s4"], ["s5", "s1", "s3"]]],
            "round 2: spin s3 is used twice",
        ),
        (["a", "b", "a"], [[["a", "b", "a"]]], "label a names more than one spin"),
        (["s0", "s1", "s2"], [[["s0", "s1"]]], "round 1: every boost triple must name three spins"),
        (["s0", "s1", "s2"], [[["s0", "s1", "s9"]]], "round 1: unknown spin s9"),
        (["a", "b", "c"], [["abc"]], "round 1: every boost triple must name three spins"),
    ],
)
def test_plan_loading_rejects_inconsistent_triples(labels, rounds, message):
    with pytest.raises(ValueError, match=message):
        CoolingPlan.from_dict(_plan_dict(labels, rounds))


@pytest.mark.parametrize(
    "pool_eps", [[float("nan")], [1e-3], [1e-3, 1e-3, 1e-3], [1e-3, float("inf")]]
)
def test_plan_loading_rejects_pool_values_that_do_not_match_the_triples(pool_eps):
    data = _plan_dict([f"s{i}" for i in range(6)], [[["s0", "s1", "s2"], ["s3", "s4", "s5"]]])
    data["rounds"][0]["pool_eps"] = pool_eps
    with pytest.raises(ValueError, match="round 1: pool_eps must hold one finite value per triple"):
        CoolingPlan.from_dict(data)


@pytest.mark.parametrize("field", ["target_eps", "predicted_best"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_plan_loading_rejects_a_non_finite_target_or_prediction(field, value):
    data = _plan_dict(["s0", "s1", "s2"], [[["s0", "s1", "s2"]]])
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        CoolingPlan.from_dict({**data, field: value})


@pytest.mark.parametrize("field", ["boost_gate_count", "refocus_gate_count", "total_gate_count"])
@pytest.mark.parametrize("recycle", [False, True])
def test_plan_loading_rejects_a_gate_ledger_that_disagrees_with_the_rounds(field, recycle):
    data = plan_rounds(9, 1e-3, 0.99 * 2.25e-3, recycle=recycle).to_dict()
    assert CoolingPlan.from_dict(data).to_dict() == data
    tampered = data[field] + 2
    with pytest.raises(ValueError, match=f"{field} is {tampered}, but the rounds give {data[field]}"):
        CoolingPlan.from_dict({**data, field: tampered})


@pytest.mark.parametrize(
    ("change", "message"),
    [
        pytest.param({"n": 9.7}, "n must be a positive integer, got 9.7", id="fractional-n"),
        pytest.param({"n": True}, "n must be a positive integer, got True", id="boolean-n"),
        pytest.param({"recycle": "no"}, "recycle must be true or false, got 'no'", id="string-recycle"),
        pytest.param(
            {"labels": "abcdefghi"},
            "labels must be a JSON array, got 'abcdefghi'",
            id="string-labels",
        ),
        pytest.param(
            {"labels": ["s0", None, *(f"s{i}" for i in range(2, 9))]},
            "spin labels must be strings, got None",
            id="null-label",
        ),
        pytest.param({"eps0": "1e-3"}, "eps0 must be a number, got '1e-3'", id="string-eps0"),
        pytest.param({"target_eps": True}, "target_eps must be a number, got True", id="boolean-target"),
        pytest.param(
            {"predicted_best": [2e-3]},
            r"predicted_best must be a number, got \[0.002\]",
            id="list-prediction",
        ),
        pytest.param(
            {"rounds": [{"triples": [["s0", "s1", "s2"]], "pool_eps": ["0.001"]}]},
            "pool_eps must hold numbers only",
            id="string-pool-value",
        ),
        pytest.param({"rounds": 5}, "rounds must be a JSON array, got 5", id="number-rounds"),
        pytest.param({"rounds": [5]}, "round 1 must be a JSON object, got int", id="number-round"),
        pytest.param(
            {"rounds": [{"triples": 5, "pool_eps": [1e-3]}]},
            "round 1 triples must be a JSON array, got 5",
            id="number-triples",
        ),
        pytest.param(
            {"rounds": [{"triples": [["s0", "s1", "s2"]]}]},
            r"round 1 object missing fields: \['pool_eps'\]",
            id="missing-pool-values",
        ),
        pytest.param(
            {"predicted_best": None},
            r"plan object missing fields: \['predicted_best'\]",
            id="missing-prediction",
        ),
        pytest.param(
            {"labels": None, "rounds": None},
            r"missing fields: \['labels', 'rounds'\]",
            id="missing-labels-and-rounds",
        ),
    ],
)
def test_plan_loading_rejects_a_malformed_or_missing_field(change, message):
    data = {**plan_rounds(9, 1e-3, 2.2e-3).to_dict(), **change}
    data = {key: value for key, value in data.items() if value is not None}
    with pytest.raises(ValueError, match=message):
        CoolingPlan.from_dict(data)


def test_plan_loading_rejects_a_polarization_outside_the_unit_interval():
    data = _plan_dict(["s0", "s1", "s2"], [[["s0", "s1", "s2"]]])
    for eps0 in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="eps0 must lie in"):
            CoolingPlan.from_dict({**data, "eps0": eps0})


def _plan(n, eps0, rounds):
    return CoolingPlan(
        n=n, eps0=eps0, target_eps=1.0, recycle=False,
        rounds=[Round(triples=list(r), pool_eps=[eps0] * len(r)) for r in rounds],
        predicted_best=eps0,
    )


@st.composite
def _random_plans(draw):
    n = draw(st.integers(min_value=3, max_value=10))
    rounds = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        spins = draw(st.permutations(range(n)))
        k = draw(st.integers(min_value=1, max_value=n // 3))
        rounds.append([tuple(spins[3 * i : 3 * i + 3]) for i in range(k)])
    return _plan(n, draw(st.floats(min_value=0.0, max_value=1.0)), rounds)


@settings(max_examples=60, deadline=None)
@given(plan=_random_plans())
@example(plan=_plan(10, 0.9499518175846762, [[(0, 1, 2)]]))
def test_exact_replay_matches_the_joint_distribution_oracle(plan):
    triples = [t for rnd in plan.rounds for t in rnd.triples]
    want = oracles.replay_exact(plan.n, plan.eps0, triples)
    got = simulate_plan(plan, mode="exact").eps_exact
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def test_a_spin_leaves_its_cluster_after_its_last_triple(monkeypatch):
    # Triple (1, 4, 9) of round 2 uses spins that (0, 3, 6) made correlated.
    # Dropping 3 and 6 from their cluster right after (0, 3, 6), not at the end
    # of the round, keeps the largest cluster at seven spins instead of nine.
    rounds = [
        [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)],
        [(0, 3, 6), (1, 4, 9), (2, 7, 10)],
        [(0, 1, 2)],
    ]
    cluster_sizes = []

    def spy(*args):  # the replay merges every boost's clusters with one reduce
        merged = merge(*args)
        cluster_sizes.append(merged.ndim)
        return merged

    merge = cooling.reduce
    monkeypatch.setattr(cooling, "reduce", spy)
    got = simulate_plan(_plan(12, 0.3, rounds), mode="exact").eps_exact
    want = oracles.replay_exact(12, 0.3, [t for rnd in rounds for t in rnd])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
    assert max(cluster_sizes) == 7


def test_exact_and_approx_replay_agree_to_rounding_on_a_recycled_plan(monkeypatch):
    # The recycled 81-spin plan's triples draw on disjoint histories, so the
    # two policies agree exactly in exact arithmetic.
    monkeypatch.setenv("COOLSPIN_MAX_N", "81")
    plan = plan_rounds(81, 1e-4, 0.99 * 1.5**4 * 1e-4, recycle=True)
    both = simulate_plan(plan, mode="both")
    assert both.discrepancy <= 1e-15 * both.eps_exact.max()


@pytest.mark.parametrize("recycle", [False, True])
def test_approx_replay_equals_a_boost_exact_loop_bit_for_bit(recycle):
    for k, eps0 in ((3, 1e-3), (4, 2e-4), (5, 1e-5), (6, 0.05)):
        target = eps0
        for _ in range(k - recycle):
            target = boost_exact(target).eps_a
        plan = plan_rounds(3**k, eps0, 0.99 * target, recycle=recycle)
        want = np.full(plan.n, eps0)
        for rnd in plan.rounds:
            for a, b, c in rnd.triples:
                report = boost_exact(float(want[a]))
                want[[a, b, c]] = report.eps_a, report.eps_b, report.eps_c
        got = simulate_plan(plan, mode="approx").eps_approx
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("recycle", [False, True])
def test_approx_cooling_boosts_once_per_pool_value(monkeypatch, recycle):
    calls = []

    def spy(eps):
        calls.append(eps)
        return kernel(eps)

    kernel = cooling._boost_marginals
    monkeypatch.setattr(cooling, "_boost_marginals", spy)
    plan = plan_rounds(3**8, 1e-4, 0.99 * 1.5**7 * 1e-4, recycle=recycle)
    planned = len(calls)
    simulate_plan(plan, mode="approx")
    values = {v for rnd in plan.rounds for v in rnd.pool_eps}
    triples = sum(len(rnd.triples) for rnd in plan.rounds)
    assert triples > 3 * len(values)
    assert planned <= len(values)
    assert len(calls) - planned <= len(values)


def _compare_with_reference_scheduler(n, eps0, target, recycle):
    want = oracles.plan_rounds_reference(n, eps0, target, boost_exact, recycle=recycle)
    if want is None:
        with pytest.raises(InfeasibleError):
            plan_rounds(n, eps0, target, recycle=recycle)
        return
    plan = plan_rounds(n, eps0, target, recycle=recycle)
    assert [(_triples(rnd), rnd.pool_eps.tolist()) for rnd in plan.rounds] == want[0]
    assert (plan.boost_gate_count, plan.refocus_gate_count) == want[1:3]
    assert plan.predicted_best == want[3]


@settings(max_examples=80, deadline=None)
@given(
    log_n=st.floats(min_value=1.0, max_value=7.0),
    log_eps0=st.floats(min_value=-13.0, max_value=math.log10(0.9999)),
    depth=st.integers(min_value=1, max_value=9),
    slack=st.sampled_from([0.99, 1.0]),
    recycle=st.booleans(),
)
@example(log_n=3.0, log_eps0=math.log10(0.99), depth=4, slack=1.0, recycle=False)
@example(log_n=4.0, log_eps0=math.log10(0.9999), depth=3, slack=1.0, recycle=True)
@example(log_n=6.0, log_eps0=-11.0, depth=5, slack=0.99, recycle=True)  # float ties merge pools
def test_scheduler_matches_the_one_triple_at_a_time_reference(log_n, log_eps0, depth, slack, recycle):
    eps0 = 10.0**log_eps0
    target = eps0
    for _ in range(depth):
        target = boost_exact(target).eps_a
    target *= slack  # up to 1.0, where the boost iterate rounds to full polarization
    assume(eps0 < target)
    _compare_with_reference_scheduler(int(3**log_n), eps0, target, recycle)


@st.composite
def _planned(draw, max_log_n=10.0):
    """A feasible plan at n <= 3**max_log_n, from one of three polarization regimes."""
    log_n = draw(st.floats(min_value=1.0, max_value=max_log_n))
    eps0 = draw(
        st.one_of(
            st.floats(min_value=0.5, max_value=0.9999),
            st.floats(min_value=-13.0, max_value=-9.0).map(lambda x: 10.0**x),  # float ties merge pools
            st.floats(min_value=-6.0, max_value=-1.0).map(lambda x: 10.0**x),
        )
    )
    target = eps0
    for _ in range(min(draw(st.integers(min_value=1, max_value=10)), int(log_n))):
        target = boost_exact(target).eps_a
    target *= draw(st.sampled_from([0.99, 1.0]))
    assume(eps0 < target)
    return plan_rounds(int(3**log_n), eps0, target, recycle=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(plan=_planned())
@example(plan=plan_rounds(729, 1e-11, 0.99 * 1.5**5 * 1e-11, recycle=True))
@example(plan=plan_rounds(81, 0.99, 1.0, recycle=True))
def test_the_pool_level_plan_matches_the_per_spin_replay(plan):
    eps = np.full(plan.n, plan.eps0)
    for rnd in plan.rounds:
        assert (eps[rnd.triples] == rnd.pool_eps[:, None]).all()
        assert rnd.boosts == len(rnd.triples)
        assert [value for value, _ in rnd.blocks] == sorted(set(rnd.pool_eps.tolist()), reverse=True)
        values, inverse = np.unique(rnd.pool_eps, return_inverse=True)
        reports = [boost_exact(float(value)) for value in values]
        eps[rnd.triples] = np.array([(r.eps_a, r.eps_b, r.eps_c) for r in reports])[inverse]
    triples = [len(rnd.triples) for rnd in plan.rounds]
    assert plan.boost_gate_count == GATES_PER_BOOST * sum(triples)
    assert plan.refocus_gate_count == sum(2 * (plan.n - 3 * k) for k in triples)
    result = simulate_plan(plan, mode="approx")
    spin = int(np.argmax(eps))
    assert result.best() == (spin, float(eps[spin])) == (spin, plan.predicted_best)
    assert result.eps_approx.tobytes() == eps.tobytes()


@st.composite
def _tie_prone(draw):
    """A recycled plan at n <= 2187 and eps0 <= 1e-9, where float ties merge pools."""
    n = draw(st.integers(min_value=27, max_value=2187))
    eps0 = 10.0 ** draw(st.floats(min_value=-13.0, max_value=-9.0))
    depth = draw(st.integers(min_value=2, max_value=int(math.log(n, 3) + 1e-9)))
    return plan_rounds(n, eps0, 0.99 * 1.5**depth * eps0, recycle=True)


@settings(max_examples=60, deadline=None)
@given(plan=st.one_of(_planned(max_log_n=7.0), _tie_prone()))
@example(plan=plan_rounds(2187, 1e-10, 1.6915078125000002e-09, recycle=True))  # 15 tie-merged blocks
@example(plan=plan_rounds(729, 1e-11, 0.99 * 1.5**5 * 1e-11, recycle=True))
@example(plan=plan_rounds(81, 1e-5, 5e-5, recycle=True))
def test_a_plan_loaded_from_its_dict_equals_it_and_replays_bit_for_bit(plan):
    again = CoolingPlan.from_dict(plan.to_dict())
    assert again == dataclasses.replace(plan, labels=again.labels)
    assert again.labels == tuple(plan.label(i) for i in range(plan.n))
    assert simulate_plan(again).eps_approx.tobytes() == simulate_plan(plan).eps_approx.tobytes()
    # A small budget (8 MiB) keeps the recycled clusters, and their sum, small,
    # yet holds the cone walk of a copy of a certified 2187-spin plan (5 MB).
    with pytest.MonkeyPatch.context() as env:
        env.setenv(CAPACITY_ENV_VAR, "20")
        try:
            want = simulate_plan(plan, mode="exact").eps_exact
        except CapacityError:
            with pytest.raises(CapacityError):
                simulate_plan(again, mode="exact")
            return
        assert simulate_plan(again, mode="exact").eps_exact.tobytes() == want.tobytes()


def test_a_billion_spins_plan_in_under_a_second():
    started = time.perf_counter()
    plan = plan_rounds(10**9, 3e-5, 0.99 * 1.5**18 * 3e-5)
    assert time.perf_counter() - started < 1.0
    assert len(plan.rounds) == 18
    assert simulate_plan(plan, mode="approx").best() == (0, plan.predicted_best)


@pytest.mark.parametrize("recycle", [False, True])
def test_scheduler_matches_the_reference_at_the_scaling_sizes(recycle):
    for k, n in enumerate([3, 9, 27, 81, 243]):
        _compare_with_reference_scheduler(n, 1e-5, 0.99 * 1.5 ** (k + 1) * 1e-5, recycle)


def test_recycled_pools_stay_apart_at_low_polarization():
    # Every boost of a round splits its pool into a and b pools, so a pool
    # count below 2**r means rounding merged two histories into one key.
    for k, n in ((4, 81), (5, 243)):
        plan = plan_rounds(n, 1e-5, 0.99 * 1.5**k * 1e-5, recycle=True)
        assert [len(set(rnd.pool_eps.tolist())) for rnd in plan.rounds] == [2**r for r in range(k)]


def test_approx_replay_rejects_a_triple_that_mixes_pools():
    plan = _plan(6, 1e-3, [[(0, 1, 2)], [(0, 3, 4)]])
    with pytest.raises(ValueError, match="mixes polarization pools"):
        simulate_plan(plan, mode="approx")


def test_the_mixed_pool_error_names_the_first_bad_triple_of_its_round():
    # After round 1, spins 0, 1 and 2 sit in three different pools.
    rounds = [[(0, 1, 2)], [(3, 4, 5), (6, 7, 8), (0, 9, 10), (1, 11, 12)]]
    with pytest.raises(ValueError, match=r"triple \(0, 9, 10\) mixes polarization pools"):
        simulate_plan(_plan(13, 1e-3, rounds), mode="approx")


@pytest.mark.parametrize("mode", ["approx", "both", "exact"])
def test_a_loaded_plan_whose_pool_values_disagree_with_its_spins_is_refused(mode):
    # Round 2 boosts the a pool and the b pool of round 1; its second triple
    # now claims the a pool's value.
    data = plan_rounds(9, 1e-3, 0.99 * 2.25e-3, recycle=True).to_dict()
    want = simulate_plan(CoolingPlan.from_dict(data), mode="exact").eps_exact
    eps_a, eps_b = data["rounds"][1]["pool_eps"]
    data["rounds"][1]["pool_eps"] = [eps_a, eps_a]
    plan = CoolingPlan.from_dict(data)
    if mode == "exact":  # the cluster engine reads no pool values
        assert simulate_plan(plan, mode=mode).eps_exact.tobytes() == want.tobytes()
        return
    message = (
        f"triple (1, 4, 7) mixes polarization pools: spin 1 holds {eps_b!r},"
        f" its pool value is {eps_a!r}"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate_plan(plan, mode=mode)


def test_a_round_holds_its_triples_and_pool_values_as_arrays():
    rnd = Round(triples=[(0, 1, 2), (3, 4, 5)], pool_eps=[1e-3, 1e-3])
    assert rnd.triples.dtype == np.intp and rnd.triples.shape == (2, 3)
    assert rnd.pool_eps.dtype == float and rnd.pool_eps.shape == (2,)
    assert Round(triples=[], pool_eps=[]).triples.shape == (0, 3)
    assert Round(triples=[], pool_eps=[]).blocks == ()
    signed = Round(triples=[(0, 1, 2), (3, 4, 5)], pool_eps=[0.0, -0.0])
    assert len(signed.blocks) == 2 and signed.pool_eps.tobytes() == np.array([0.0, -0.0]).tobytes()
    grouped = Round(triples=[(0, 1, 2), (3, 4, 5), (6, 7, 8)], pool_eps=[1e-3, 1e-3, 2e-3])
    assert [(value, spins.tolist()) for value, spins in grouped.blocks] == [
        (1e-3, [0, 1, 2, 3, 4, 5]), (2e-3, [6, 7, 8]),
    ]
    planned = plan_rounds(9, 1e-3, 0.99 * 2.25e-3).rounds
    eps_a = boost_exact(1e-3).eps_a
    assert [rnd.blocks for rnd in planned] == [((1e-3, range(9)),), ((eps_a, range(0, 9, 3)),)]
    assert planned[1].triples.dtype == np.intp and planned[1].triples.tolist() == [[0, 3, 6]]
    assert plan_rounds(9, 1e-3, 2.2e-3) == plan_rounds(9, 1e-3, 2.2e-3)
    assert rnd != Round(triples=[(0, 1, 2), (3, 5, 4)], pool_eps=[1e-3, 1e-3])


@pytest.mark.parametrize(
    "triples",
    [[(0.7, 1.9, 2)], [(True, False, 2)], [[0, 1, "2"]], np.array([[0.0, 1.0, 2.0]])],
    ids=["floats", "booleans-among-integers", "string", "float-array"],
)
def test_a_hand_made_round_refuses_spin_indices_that_are_not_integers(triples):
    with pytest.raises(ValueError, match="boost triples must hold integers only, not floats"):
        Round(triples=triples, pool_eps=[1e-3])


def test_a_hand_made_round_of_pairs_is_refused_when_it_is_built():
    # A round checks its own triples, before any plan gives it a number.
    with pytest.raises(ValueError, match="^every boost triple must name three spins$"):
        Round(triples=[(0, 1), (3, 4)], pool_eps=[1e-3, 1e-3])


@pytest.mark.parametrize(
    ("rounds", "message"),
    [
        pytest.param(
            [[(0, 1, 2), (3, 4, 5)], [(0, 3, 4), (5, 1, 3)]],
            "round 2: spin s3 is used twice",
            id="overlapping-triples",
        ),
        pytest.param([[(0, 1, 2)], [(3, 4, 6)]], r"round 2: a spin index lies outside 0\.\.5", id="index-past-n"),
        pytest.param([[(0, -1, 2)]], r"round 1: a spin index lies outside 0\.\.5", id="negative-index"),
    ],
)
def test_a_hand_made_plan_refuses_index_array_blocks_that_overlap_or_leave_the_spins(rounds, message):
    with pytest.raises(ValueError, match=message):
        _plan(6, 1e-3, rounds)


@pytest.mark.parametrize(
    ("blocks", "message"),
    [
        # Accepted before range blocks were bounded: a refocus count of -6, two
        # of its three triples boosted by the approx replay, and an IndexError
        # from to_dict.
        pytest.param([(1e-3, range(0, 9))], "round 2: its blocks hold 9 spins, more than the 6 there are", id="past-n"),
        pytest.param([(1e-3, range(-3, 3))], r"round 2: a spin index lies outside 0\.\.5", id="negative-start"),
        pytest.param([(1e-3, range(5, -1, -2))], r"round 2: block range\(5, -1, -2\) must step upward$", id="downward"),
        pytest.param(
            [(1e-3, range(0, 4))], "round 2: a block of 4 spins does not split into triples", id="range-of-4"
        ),
        pytest.param(
            [(1e-3, range(0, 3)), (2e-3, np.array([3, 4], dtype=np.intp))],
            "round 2: a block of 2 spins does not split into triples",
            id="index-array-of-2",
        ),
        # Accepted before empty blocks were refused: the approx replay raised numpy's
        # bare "attempt to get argmax of an empty sequence".
        pytest.param(
            [(1e-3, range(0, 0)), (1e-3, range(0, 3))], "round 2: a block holds no spins", id="empty-range"
        ),
        pytest.param(
            [(1e-3, range(0, 3)), (2e-3, np.array([], dtype=np.intp))],
            "round 2: a block holds no spins",
            id="empty-index-array",
        ),
        # Accepted before a round's spins were counted: a refocus count of -6 and a
        # total gate count of 9.
        pytest.param(
            [(1e-3, range(0, 3)), (1e-3, range(0, 6))],
            "round 2: its blocks hold 9 spins, more than the 6 there are",
            id="more-spins-than-n",
        ),
        # Accepted before range blocks were expanded into the repeat sort: 6 spins fit
        # in 6, but s1 and s2 sit in both blocks, and to_dict wrote them twice.
        pytest.param(
            [(1e-3, range(0, 3)), (1e-3, range(1, 4))], "round 2: spin s1 is used twice$", id="overlapping-ranges"
        ),
        pytest.param(
            [(1e-3, range(0, 3)), (2e-3, range(0, 3))], "round 2: spin s0 is used twice$", id="one-range-twice"
        ),
        pytest.param(
            [(1e-3, range(0, 6, 2)), (1e-3, np.array([1, 3, 4]))], "round 2: spin s4 is used twice$", id="range-and-array"
        ),
        # Accepted before block values were read: to_dict wrote NaN, which from_dict refused,
        # and a string made to_dict raise numpy's "could not convert string to float".
        pytest.param([(float("nan"), range(0, 3))], "round 2: pool value must be finite, got nan$", id="nan-value"),
        pytest.param([(float("inf"), range(0, 3))], "round 2: pool value must be finite, got inf$", id="inf-value"),
        pytest.param([(True, range(0, 3))], "round 2: pool value must be a number, got True$", id="boolean-value"),
        pytest.param([("x", range(0, 3))], "round 2: pool value must be a number, got 'x'$", id="string-value"),
    ],
)
def test_a_hand_made_plan_refuses_range_blocks_that_leave_the_spins_or_split_a_triple(blocks, message):
    rounds = [Round(blocks=[(1e-3, range(3, 6))]), Round(blocks=blocks)]
    fields = dict(n=6, eps0=1e-3, target_eps=2e-3, recycle=False, predicted_best=1e-3)
    with pytest.raises(ValueError, match=f"^{message}"):
        CoolingPlan(**fields, rounds=rounds)
    # The last spin may be n - 1, and a range may step.
    rounds = [Round(blocks=[(1e-3, range(0, 6))]), Round(blocks=[(1e-3, range(1, 6, 2))])]
    plan = CoolingPlan(**fields, rounds=rounds)
    assert plan.total_gate_count == 5 * 3 + 2 * (6 - 6) + 2 * (6 - 3)
    # Strided ranges may interleave without sharing a spin.
    rounds = [Round(blocks=[(1e-3, range(0, 6, 2)), (1e-3, range(1, 6, 2))])]
    assert CoolingPlan(**fields, rounds=rounds).total_gate_count == 5 * 2


def test_a_hand_made_plan_with_interleaved_range_blocks_is_refused_naming_a_spin():
    # Before, this plan was accepted: the exact replay returned numbers for it, the
    # approx replay refused it as mixing pools, and its file could not be loaded.
    rounds = [Round(blocks=[(1e-3, range(0, 3)), (1e-3, range(1, 4))])]
    with pytest.raises(ValueError, match="^round 1: spin s1 is used twice$"):
        CoolingPlan(n=9, eps0=1e-3, target_eps=2e-3, recycle=False, rounds=rounds, predicted_best=1e-3)


def test_a_float32_pool_value_is_replayed_in_double_precision():
    # The approx replay boosted a float32 value in float32: 4.716e-09 off the cone walk.
    value = np.float32(0.1)
    plan = CoolingPlan(3, float(value), 1.0, False, [Round(blocks=[(value, range(3))])], 0.5)
    result = simulate_plan(plan, mode="both")
    assert result.discrepancy == 0.0
    assert result.eps_approx.tolist() == list(cooling._boost_marginals(float(value)))


def test_index_array_blocks_that_overlap_across_pool_values_are_refused():
    # Two blocks of one round, at two pool values, share spin 4.
    rnd = Round(triples=[(0, 1, 4), (4, 5, 6)], pool_eps=[1e-3, 2e-3])
    assert [value for value, _ in rnd.blocks] == [1e-3, 2e-3]
    with pytest.raises(ValueError, match="round 1: spin s4 is used twice"):
        CoolingPlan(n=9, eps0=1e-3, target_eps=1.0, recycle=False, rounds=[rnd], predicted_best=1e-3)


@pytest.mark.parametrize(
    ("change", "message"),
    [
        ({"n": 0}, "n must be a positive integer, got 0"),
        ({"n": 3.0}, "n must be a positive integer, got 3.0"),
        ({"n": True}, "n must be a positive integer, got True"),
        ({"recycle": "yes"}, "recycle must be true or false, got 'yes'"),
        ({"recycle": 1}, "recycle must be true or false, got 1"),
        ({"eps0": True}, "eps0 must be a number, got True"),
        ({"eps0": "0.1"}, "eps0 must be a number, got '0.1'"),
        ({"target_eps": "0.2"}, "target_eps must be a number, got '0.2'"),
        ({"predicted_best": False}, "predicted_best must be a number, got False"),
    ],
)
def test_a_hand_made_plan_refuses_a_bad_spin_count_or_recycle_flag(change, message):
    fields = dict(n=3, eps0=0.1, target_eps=0.2, recycle=False, rounds=[], predicted_best=0.2)
    with pytest.raises(ValueError, match=message):
        CoolingPlan(**{**fields, **change})


@pytest.mark.parametrize(
    ("change", "message"),
    [({"recycle": 1}, "recycle must be true or false, got 1"), ({"labels": ["a", "b"]}, "need one label per spin")],
    ids=["recycle", "labels"],
)
def test_the_planner_refuses_a_bad_recycle_flag_or_labels_before_it_boosts(monkeypatch, change, message):
    # Both were refused only after the plan was built: 0.5 s at a billion spins.
    boosts = []
    kernel = cooling._boost_marginals
    monkeypatch.setattr(cooling, "_boost_marginals", lambda eps: boosts.append(eps) or kernel(eps))
    with pytest.raises(ValueError, match=f"^{message}$"):
        plan_rounds(10**9, 3e-5, 0.99 * 1.5**17 * 3e-5, **change)
    assert boosts == []


def test_a_hand_made_plan_derives_its_gate_ledger_from_its_rounds():
    plan = _plan(9, 1e-3, [[(0, 1, 2), (3, 4, 5)], [(0, 3, 6)]])
    assert plan.boost_gate_count == 3 * GATES_PER_BOOST
    assert plan.refocus_gate_count == 2 * (9 - 6) + 2 * (9 - 3)
    assert plan.total_gate_count == 15 + 18


def test_a_default_plan_names_its_spins_only_on_demand():
    plan = plan_rounds(27, 1e-3, 2.2e-3)
    assert plan.labels == ()
    assert plan.label(26) == "s26"
    assert plan.to_dict()["labels"] == [f"s{i}" for i in range(27)]
    named = plan_rounds(9, 1e-3, 2.2e-3, labels=list("abcdefghi"))
    assert named.label(1) == "b"


@settings(max_examples=40, deadline=None)
@given(
    log_n=st.floats(min_value=1.0, max_value=7.0),
    log_eps0=st.floats(min_value=-7.0, max_value=math.log10(0.5)),
    depth=st.integers(min_value=1, max_value=7),
    recycle=st.booleans(),
)
def test_a_plan_survives_a_dict_round_trip_byte_for_byte(log_n, log_eps0, depth, recycle):
    eps0 = 10.0**log_eps0
    target = eps0
    for _ in range(depth):
        target = boost_exact(target).eps_a
    try:
        plan = plan_rounds(int(3**log_n), eps0, 0.99 * target, recycle=recycle)
    except InfeasibleError:
        assume(False)
    want = json.dumps(plan.to_dict())
    assert json.dumps(CoolingPlan.from_dict(json.loads(want)).to_dict()) == want


@st.composite
def _file_plans(draw):
    """A planner plan (tie-merged below eps0 ~ 1e-9), or a hand-made one from triples or from blocks."""
    kind = draw(st.sampled_from(["planner", "triples", "blocks"]))
    if kind == "planner":
        n = draw(st.integers(min_value=3, max_value=3**7))
        # Log-uniform, half the draws below 1e-9, where float ties merge pools into index arrays.
        log_eps0 = st.one_of(st.floats(min_value=-11.0, max_value=-9.0), st.floats(min_value=-9.0, max_value=-2.0))
        eps0 = 10.0 ** draw(log_eps0)
        depth = draw(st.integers(min_value=1, max_value=int(math.log(n, 3) + 1e-9)))
        labels = [f"q{i}" for i in range(n)] if draw(st.booleans()) else None
        try:
            return plan_rounds(n, eps0, 0.99 * 1.5**depth * eps0, recycle=draw(st.booleans()), labels=labels)
        except InfeasibleError:
            assume(False)
    n = draw(st.integers(min_value=3, max_value=30))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=3))
    rounds = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if kind == "triples":
            spins = draw(st.permutations(range(n)))[: 3 * draw(st.integers(min_value=0, max_value=n // 3))]
            triples = [spins[i : i + 3] for i in range(0, len(spins), 3)]
            rounds.append(Round(triples, [draw(st.sampled_from(values)) for _ in triples]))
            continue
        # Blocks cut from the spins in strides of `step`: a run that steps by it may be a range.
        step = draw(st.integers(min_value=1, max_value=3))
        spins = [s for first in range(step) for s in range(first, n, step)]
        blocks = []
        while len(spins) >= 3:
            size = 3 * draw(st.integers(min_value=1, max_value=len(spins) // 3))
            run, spins = spins[:size], spins[size:]
            value = draw(st.sampled_from([np.float32, np.float64]))(draw(st.sampled_from(values)))
            if run == list(range(run[0], run[-1] + 1, step)) and draw(st.booleans()):
                blocks.append((value, range(run[0], run[-1] + 1, step)))
            else:
                blocks.append((value, np.array(run, dtype=draw(st.sampled_from([np.intp, np.int32, np.uint16])))))
        rounds.append(Round(blocks=blocks))
    labels = [f"spin-{i}" for i in range(n)] if draw(st.booleans()) else ()
    return CoolingPlan(n, 0.5, 1.0, draw(st.booleans()), rounds, 0.75, labels)


@settings(max_examples=150, deadline=None)
@given(plan=_file_plans(), reload=st.booleans())
@example(plan=plan_rounds(2187, 1e-10, 1.6915078125000002e-09, recycle=True), reload=False)  # 15 tie-merged blocks
@example(plan=plan_rounds(19, 1e-4, 2.2e-4, recycle=True), reload=False)
def test_a_plan_file_listed_from_the_blocks_equals_one_listed_from_the_triples(plan, reload):
    if reload:
        plan = CoolingPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    text = json.dumps(plan.to_dict())
    # The file is written without building a round's triple or pool-value arrays.
    assert not any({"triples", "pool_eps"} & vars(rnd).keys() for rnd in plan.rounds)
    assert text == json.dumps(oracles.plan_dict(plan))


def test_simulation_modes_agree_at_low_polarization():
    plan = plan_rounds(9, 1e-3, 0.99 * 2.25e-3)
    both = simulate_plan(plan, mode="both")
    spin, best = both.best()
    assert spin == 0
    assert best == pytest.approx(0.00225, rel=1e-3)
    assert both.discrepancy < 1e-12
    assert both.eps_exact[0] == pytest.approx(oracles.two_round_cascade_n9(1e-3), abs=1e-12)

    only_exact = simulate_plan(plan, mode="exact")
    assert only_exact.eps_approx is None
    assert only_exact.eps_exact[0] == both.eps_exact[0]
    with pytest.raises(ValueError):
        simulate_plan(plan, mode="bogus")


def test_exact_simulation_respects_population_capacity(monkeypatch):
    # The budget bounds the largest correlated cluster, not the plan's n:
    # without recycling every triple is certified, so 27 spins replay.
    monkeypatch.delenv(CAPACITY_ENV_VAR, raising=False)
    result = simulate_plan(plan_rounds(27, 1e-5, 3.34e-5), mode="both")
    assert result.discrepancy == 0.0
    # Where float ties merge recycled pools, clusters of up to 12 spins form:
    # 32 KiB, over a budget of 16 KiB that the cone walk before them fits.
    recycled = plan_rounds(27, 1e-9, 3.34e-9, recycle=True)
    monkeypatch.setenv(CAPACITY_ENV_VAR, "11")
    with pytest.raises(CapacityError, match="a 12-spin merge with the live clusters needs 32768 bytes, over the budget of 16384"):
        simulate_plan(recycled, mode="exact")
    # The approx policy has no such ceiling.
    assert simulate_plan(recycled, mode="approx").eps_approx is not None


def test_exact_replay_reads_the_spin_budget_once(monkeypatch):
    # Once per engine: the cone walk finds overlapping cones, and the cluster engine replays.
    reads = []

    def spy():
        reads.append(sys._getframe(1).f_code.co_name)
        return budget()

    budget = cooling.memory_budget
    monkeypatch.setattr(cooling, "memory_budget", spy)
    simulate_plan(plan_rounds(27, 1e-9, 3.34e-9, recycle=True), mode="exact")
    assert reads == ["_walk_cones", "_replay_clusters"]


def test_the_cluster_engine_bounds_the_sum_of_its_live_clusters(monkeypatch):
    # Round 1 leaves three 3-spin clusters of 8 entries (64 bytes) each, which
    # round 2 boosts again: each fits a budget of 128 bytes, but the third would
    # bring the live clusters to 192 bytes. The cone walk alone would need more
    # than either budget, so the cluster engine is called directly.
    rounds = [[(0, 1, 2), (3, 4, 5), (6, 7, 8)]] * 2
    merges = []

    def spy(*args):
        merged = merge(*args)
        merges.append(merged.ndim)
        return merged

    merge = cooling.reduce
    monkeypatch.setattr(cooling, "reduce", spy)
    monkeypatch.setenv(CAPACITY_ENV_VAR, "4")
    with pytest.raises(CapacityError, match="a 3-spin merge with the live clusters needs 192 bytes, over the budget of 128"):
        cooling._replay_clusters(_plan(9, 0.3, rounds))
    assert merges == [3, 3]  # the third triple's cluster is never allocated
    monkeypatch.setenv(CAPACITY_ENV_VAR, "5")
    got = cooling._replay_clusters(_plan(9, 0.3, rounds))
    want = oracles.replay_exact(9, 0.3, [t for rnd in rounds for t in rnd])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def _spy_on_the_cluster_engine(env) -> list:
    """Patch `_replay_clusters` to record each plan it replays."""
    calls, engine = [], cooling._replay_clusters
    env.setattr(cooling, "_replay_clusters", lambda plan: calls.append(plan) or engine(plan))
    return calls


@st.composite
def _recycled_plans(draw):
    """A recycled planner plan at n <= 81 and eps0 in [1e-13, 0.3]."""
    n = draw(st.integers(min_value=3, max_value=81))
    eps0 = 10.0 ** draw(st.floats(min_value=-13.0, max_value=math.log10(0.3)))
    target = eps0
    for _ in range(draw(st.integers(min_value=1, max_value=int(math.log(n, 3) + 1e-9)))):
        target = boost_exact(target).eps_a
    return plan_rounds(n, eps0, 0.99 * target, recycle=True)


@settings(max_examples=100, deadline=None)
@given(plan=st.one_of(_random_plans(), _recycled_plans()))
@example(plan=plan_rounds(27, 1e-5, 3.34e-5, recycle=True))
@example(plan=_plan(9, 1.0, [[(0, 1, 2), (3, 4, 5), (6, 7, 8)], [(0, 3, 6)]]))
@example(plan=_plan(3, 5e-324, [[(0, 1, 2)]]))
def test_a_certified_replay_equals_the_cluster_engine(plan):
    with pytest.MonkeyPatch.context() as env:
        env.setenv(CAPACITY_ENV_VAR, "24")
        calls = _spy_on_the_cluster_engine(env)
        try:
            got = simulate_plan(plan, mode="exact").eps_exact
        except CapacityError:  # only the cluster engine has a spin budget
            assert calls
            return
        # A plan without tie-merged blocks boosts disjoint histories only.
        if all(isinstance(run, range) for rnd in plan.rounds for _, run in rnd.blocks):
            assert calls == []
        if not calls:  # every triple was certified
            want = cooling._replay_clusters(plan)
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_only_a_plan_whose_cones_overlap_reaches_the_cluster_engine(monkeypatch):
    calls = _spy_on_the_cluster_engine(monkeypatch)
    tie_free = plan_rounds(27, 1e-5, 3.34e-5, recycle=True)
    assert simulate_plan(tie_free, mode="both").discrepancy == 0.0
    assert calls == []
    # At 1e-9 float ties merge recycled pools, and 2 of its 19 triples boost
    # spins that share an original spin.
    tied = plan_rounds(27, 1e-9, 3.34e-9, recycle=True)
    simulate_plan(tied, mode="exact")
    assert calls == [tied]


@settings(max_examples=120, deadline=None)
@given(plan=st.one_of(_planned(max_log_n=7.0), _tie_prone(), _recycled_plans()))  # eps0 down to 1e-13
@example(plan=plan_rounds(9, 1e-3, 0.99 * 2.25e-3, recycle=True))
@example(plan=plan_rounds(27, 1e-13, 3.3e-13, recycle=True))
@example(plan=plan_rounds(27, 1e-9, 3.34e-9, recycle=True))  # tie-merged
@example(plan=plan_rounds(81, 0.99, 1.0, recycle=True))
# Its only tie joins two round-2 output pools, which no round boosts.
@example(plan=plan_rounds(33, 5.850591942974408e-12, 1.3032193552975494e-11, recycle=True))
def test_the_planner_certifies_exactly_its_all_range_plans(plan):
    assert plan._certified is all(isinstance(run, range) for rnd in plan.rounds for _, run in rnd.blocks)
    # A plan whose pools never merged runs has no index-array block at all.
    if not oracles.pool_runs_merge(plan.n, plan.eps0, plan.target_eps, boost_exact, plan.recycle):
        assert plan._certified
    if not plan._certified:
        return
    with pytest.MonkeyPatch.context() as env:
        calls = _spy_on_the_cluster_engine(env)
        result = simulate_plan(plan, mode="both")
        assert "eps_exact" not in vars(result) and "eps_approx" not in vars(result)  # nothing replayed
        assert result.discrepancy == 0.0 and result.best() == (plan.best_spin, plan.predicted_best)
        # A copy that passes the public constructor carries no certificate: the cone walk.
        copy = dataclasses.replace(plan)
        assert not copy._certified
        cone_walk = simulate_plan(copy, mode="exact").eps_exact
        assert calls == []
    assert result.eps_exact.tobytes() == cone_walk.tobytes() == result.eps_approx.tobytes()
    spin = int(np.argmax(cone_walk))
    assert result.best() == (spin, float(cone_walk[spin]))
    if plan.n <= 12:
        want = oracles.replay_exact(plan.n, plan.eps0, [t for rnd in plan.rounds for t in rnd.triples])
        np.testing.assert_allclose(result.eps_exact, want, rtol=0.0, atol=1e-14)


def _spy_on_the_walk(env) -> list:
    """Patch the approx and exact replays to record the policy of each walk."""
    calls = []
    for policy in ("approx", "exact"):
        walk = getattr(cooling, f"_replay_{policy}")
        env.setattr(cooling, f"_replay_{policy}", lambda plan, policy=policy, walk=walk: calls.append(policy) or walk(plan))
    return calls


@pytest.mark.parametrize("edit", ["eps0", "append-round", "replace-blocks", "first-round"])
def test_an_edit_to_a_certified_plan_voids_its_certificate(monkeypatch, edit):
    plan = plan_rounds(9, 1e-3, 0.99 * 2.25e-3, recycle=True)
    walks, clusters = _spy_on_the_walk(monkeypatch), _spy_on_the_cluster_engine(monkeypatch)
    assert plan._certified
    assert simulate_plan(plan, mode="both").discrepancy == 0.0 and walks == []
    # A plan is frozen, so an edit is a copy through the public constructor.
    rounds = {
        # Spins 0, 1 and 2 share an original spin.
        "append-round": (*plan.rounds, Round(triples=[(0, 1, 2)], pool_eps=[1e-3])),
        "replace-blocks": (plan.rounds[0], Round(blocks=plan.rounds[1].blocks)),  # the same blocks in a new round
        "first-round": plan.rounds[:1],
    }
    copy = dataclasses.replace(plan, eps0=0.2) if edit == "eps0" else dataclasses.replace(plan, rounds=rounds[edit])
    assert not copy._certified and copy.best_spin is None
    result = simulate_plan(copy, mode="exact")
    assert walks == ["exact"]
    assert clusters == ([copy] if edit == "append-round" else [])
    want = oracles.replay_exact(9, copy.eps0, [t for rnd in copy.rounds for t in rnd.triples])
    np.testing.assert_allclose(result.eps_exact, want, rtol=0.0, atol=1e-14)
    spin = int(np.argmax(result.eps_exact))
    assert result.best() == (spin, float(result.eps_exact[spin]))
    if edit in ("replace-blocks", "first-round"):  # the other two mix pools, which approx refuses
        approx = simulate_plan(copy, mode="approx")
        spin = int(np.argmax(approx.eps_approx))
        assert approx.best() == (spin, float(approx.eps_approx[spin]))
        # Before plans were frozen, `plan.rounds = plan.rounds[:1]` kept the planner's best, 0.00225.
        assert (approx.best()[1] < plan.predicted_best) is (edit == "first-round")


def test_a_plan_its_rounds_and_its_result_cannot_be_edited_in_place():
    plan = plan_rounds(27, 1e-9, 3.34e-9, recycle=True)  # float ties merged runs into index arrays
    result, rnd = simulate_plan(plan, mode="both"), plan.rounds[0]
    edits = {
        "plan.eps0": lambda: setattr(plan, "eps0", 0.2),
        "plan.rounds": lambda: setattr(plan, "rounds", plan.rounds[:1]),
        "plan.best_spin": lambda: setattr(plan, "best_spin", 1),
        "plan._certified": lambda: setattr(plan, "_certified", True),
        "plan.rounds.append": lambda: plan.rounds.append(rnd),
        "plan.labels": lambda: setattr(plan, "labels", ["a"] * 27),
        "rnd.blocks": lambda: setattr(rnd, "blocks", ((1e-9, range(0, 6)),)),
        "rnd.boosts": lambda: setattr(rnd, "boosts", 2),
        "result.plan": lambda: setattr(result, "plan", plan),
        "result.discrepancy": lambda: setattr(result, "discrepancy", 1.0),
    }
    for name, edit in edits.items():
        with pytest.raises(AttributeError):
            edit()
            pytest.fail(f"{name} was edited")
    merged = [run for r in plan.rounds for _, run in r.blocks if isinstance(run, np.ndarray)]
    assert merged
    for array in (*merged, rnd.triples, rnd.pool_eps):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # A hand-made round keeps copies: a later write to the caller's arrays does not reach it.
    triples, spins = np.array([[0, 1, 2]]), np.array([3, 4, 5])
    made, given = Round(triples, [1e-3]), Round(blocks=[(1e-3, spins)])
    triples[0, 0], spins[0] = 7, 7
    assert made.triples.tolist() == [[0, 1, 2]] and given.triples.tolist() == [[3, 4, 5]]


def test_only_the_planner_grants_a_certificate():
    plan = plan_rounds(9, 1e-3, 0.99 * 2.25e-3)
    fields = dict(n=9, eps0=1e-3, target_eps=plan.target_eps, recycle=False, predicted_best=plan.predicted_best)
    with pytest.raises(TypeError):
        CoolingPlan(**fields, rounds=plan.rounds, _certified=True)
    for copy in (CoolingPlan(**fields, rounds=plan.rounds), CoolingPlan.from_dict(plan.to_dict())):
        assert copy.rounds == plan.rounds and not copy._certified


@pytest.mark.parametrize("mode", ["exact", "both"])
def test_triples_are_not_built_beyond_their_budget(mode):
    # The certified plan answers without its triples; its file lists them and is refused.
    # Its per-spin values take 8 * n bytes, 110 MiB, and are replayed within the budget.
    plan = plan_rounds(cooling.MAX_TRIPLE_SPINS + 1, 3e-5, 4.4e-5)
    result = simulate_plan(plan, mode=mode)
    assert result.best() == (0, plan.predicted_best)
    with pytest.raises(CapacityError, match="exceeds MAX_TRIPLE_SPINS = 14348907"):
        plan.to_dict()
    assert result.eps_exact[0] == plan.predicted_best


def test_gate_totals_track_quasi_linear_growth():
    totals = []
    sizes = [3, 9, 27, 81, 243]
    for k, n in enumerate(sizes):
        target = 0.99 * 1.5 ** (k + 1) * 1e-5
        totals.append(plan_rounds(n, 1e-5, target).total_gate_count)
    assert totals == [5, 32, 149, 608, 2309]
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(totals, dtype=float) / np.log2(sizes))
    slope = np.polyfit(x, y, 1)[0]
    assert slope == pytest.approx(1.0288, abs=1e-3)


def test_boost_approximation_error_is_third_order():
    # eps_out - 1.5 eps = -eps**3 / 2 exactly, so the first-order gain's
    # error per boost shrinks cubically.
    for eps in (1e-2, 1e-3):
        report = boost_exact(eps)
        assert report.eps_a - 1.5 * eps == pytest.approx(-(eps**3) / 2, rel=1e-6)
    exact_digits = math.log10(abs(boost_exact(1e-3).eps_a - 1.5e-3))
    assert exact_digits == pytest.approx(math.log10(0.5e-9), abs=0.01)
