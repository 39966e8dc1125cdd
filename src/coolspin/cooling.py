"""Entropy-pumping boosts and multi-round cooling schedules.

`boost_exact` propagates the full eight-state occupation distribution of
three equally polarized spins through the boost circuit, so its marginals
are exact at any polarization, not a small-polarization expansion.

`plan_rounds` builds a schedule: spins sit in pools keyed by their exact
polarization value, each round greedily forms disjoint triples inside every
pool that still holds three spins (coldest pool first, lowest indices
first), the first member of each triple comes out boosted, and the other
two leave the live set unless role b is recycled. A round walks each sorted
pool once and boosts once per pool value, so it costs O(k log k) in its k
live spins. The recorded operation count adds, on top of five gates per
boost, one refocusing echo pair (two NOT pulses) per round for every
physically present spin outside that round's triples: those couplings must
be refocused while the active spins evolve, and it is this per-round
overhead that makes the total cost grow as n log n rather than linearly.
Echo pairs compose to the identity, so they are bookkeeping only and never
touch the simulated state.

`simulate_plan` replays a plan with one engine under two policies: exact
keeps the spins that boosts have correlated together until their last
triple, approx forgets every correlation after each boost, so it boosts once
per distinct pool value and copies the three marginals to every triple.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import InfeasibleError
from .gates import Gate, boost_circuit, circuit_permutation, gate_permutation
from .states import _iz_diag, check_capacity, product_probabilities, signed_bit_sum

GATES_PER_BOOST = 5


@dataclass
class BoostReport:
    """Exact polarizations of the three roles after one boost."""

    eps_in: float
    eps_a: float
    eps_b: float
    eps_c: float
    enhancement: float
    gate_count: int = GATES_PER_BOOST


_BOOST_PERM_3 = circuit_permutation(boost_circuit(), 3)
# Built at import, so without `iz_diag`'s budget check, which reads COOLSPIN_MAX_N.
_IZ_3 = tuple(_iz_diag(3, j) for j in range(3))


def _boost_marginals(eps: float) -> tuple[float, float, float]:
    """Polarizations of roles a, b, c after boosting three independent spins at eps.

    Each marginal is `signed_bit_sum` of the permuted distribution, with the
    three Iz rows built once.
    """
    spin = np.array([1 + eps, 1 - eps]) / 2
    out = np.empty(8)
    out[_BOOST_PERM_3] = np.multiply.outer(np.multiply.outer(spin, spin), spin).reshape(-1)
    iz_a, iz_b, iz_c = _IZ_3
    return float(2.0 * (iz_a @ out)), float(2.0 * (iz_b @ out)), float(2.0 * (iz_c @ out))


def boost_exact(eps: float) -> BoostReport:
    """One boost on three spins of equal polarization eps in [0, 1].

    At eps = 0 the enhancement column reports the analytic limit 3/2.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"polarization must lie in [0, 1], got {eps}")
    eps_a, eps_b, eps_c = _boost_marginals(eps)
    enhancement = eps_a / eps if eps > 0.0 else 1.5
    return BoostReport(eps_in=eps, eps_a=eps_a, eps_b=eps_b, eps_c=eps_c, enhancement=enhancement)


def conditional_polarization_after_cnot(eps: float) -> tuple[float, float]:
    """Polarization of the first spin given the second, after CNOT(1st->2nd).

    Returns the pair for the second spin reading 0 and 1 respectively. The
    matched-parity branch concentrates polarization; the other branch holds
    none. A branch of zero weight reports 0 by convention.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"polarization must lie in [0, 1], got {eps}")
    probs = product_probabilities(2, eps)
    out = np.empty_like(probs)
    out[gate_permutation(Gate("CNOT", (0, 1)), 2)] = probs
    conds = []
    # Axis 0 is the first spin, so each column is one reading of the second.
    for keep, drop in out.reshape(2, 2).T:
        weight = keep + drop
        conds.append(float((keep - drop) / weight) if weight > 0.0 else 0.0)
    return conds[0], conds[1]


def _repeated(items: list):
    """The first item that occurs more than once."""
    return next(item for item, k in Counter(items).items() if k > 1)


@dataclass
class Round:
    """Disjoint boost triples of one round, with each triple's input pool.

    `triples` is a (k, 3) integer array of spin indices and `pool_eps` the
    (k,) array of the pool value each triple was drawn from.
    """

    triples: np.ndarray
    pool_eps: np.ndarray

    def __post_init__(self):
        self.triples = np.asarray(self.triples, dtype=np.intp)
        if self.triples.shape == (0,):
            self.triples = self.triples.reshape(0, 3)
        self.pool_eps = np.asarray(self.pool_eps, dtype=float)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Round):
            return NotImplemented
        return np.array_equal(self.triples, other.triples) and np.array_equal(
            self.pool_eps, other.pool_eps
        )


@dataclass
class CoolingPlan:
    """A full schedule plus its operation-count ledger.

    An empty `labels` list stands for the default names s0..s{n-1}, which
    are only built when a label is asked for or the plan is written out.
    """

    n: int
    eps0: float
    target_eps: float
    recycle: bool
    rounds: list[Round]
    boost_gate_count: int
    refocus_gate_count: int
    predicted_best: float
    labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.labels and len(self.labels) != self.n:
            raise ValueError("need one label per spin")
        if not 0.0 <= self.eps0 <= 1.0:
            raise ValueError(f"eps0 must lie in [0, 1], got {self.eps0}")
        if len(set(self.labels)) < len(self.labels):
            raise ValueError(f"label {_repeated(self.labels)} names more than one spin")
        for name in ("target_eps", "predicted_best"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # The replay boosts a round's triples together, so they must be disjoint.
        for r, rnd in enumerate(self.rounds, start=1):
            if rnd.triples.ndim != 2 or rnd.triples.shape[1] != 3:
                raise ValueError(f"round {r}: every boost triple must name three spins")
            used = rnd.triples.reshape(-1)
            if used.size and not 0 <= used.min() <= used.max() < self.n:
                raise ValueError(f"round {r}: a spin index lies outside 0..{self.n - 1}")
            if used.size and np.bincount(used, minlength=self.n).max() > 1:
                raise ValueError(f"round {r}: spin {self.label(_repeated(used.tolist()))} is used twice")
            if rnd.pool_eps.shape != (len(rnd.triples),) or not np.isfinite(rnd.pool_eps).all():
                raise ValueError(f"round {r}: pool_eps must hold one finite value per triple")

    @property
    def total_gate_count(self) -> int:
        return self.boost_gate_count + self.refocus_gate_count

    def label(self, spin: int) -> str:
        """Name of one spin: its given label, or s{spin} by default."""
        return self.labels[spin] if self.labels else f"s{spin}"

    def to_dict(self) -> dict:
        labels = self.labels or [f"s{i}" for i in range(self.n)]

        def named(triples: np.ndarray) -> list[list[str]]:
            names = [labels[s] for s in triples.reshape(-1).tolist()]
            return [names[i : i + 3] for i in range(0, len(names), 3)]

        return {
            "n": self.n,
            "eps0": self.eps0,
            "target_eps": self.target_eps,
            "recycle": self.recycle,
            "labels": list(labels),
            "rounds": [
                {"triples": named(rnd.triples), "pool_eps": rnd.pool_eps.tolist()}
                for rnd in self.rounds
            ],
            "boost_gate_count": self.boost_gate_count,
            "refocus_gate_count": self.refocus_gate_count,
            "total_gate_count": self.total_gate_count,
            "predicted_best": self.predicted_best,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CoolingPlan":
        labels = [str(s) for s in data["labels"]]
        index = {lab: i for i, lab in enumerate(labels)}
        rounds = []
        for r, rnd in enumerate(data["rounds"], start=1):
            unknown = [lab for t in rnd["triples"] for lab in t if lab not in index]
            if unknown:
                raise ValueError(f"round {r}: unknown spin {unknown[0]}")
            if any(len(t) != 3 for t in rnd["triples"]):
                raise ValueError(f"round {r}: every boost triple must name three spins")
            triples = [[index[lab] for lab in t] for t in rnd["triples"]]
            rounds.append(Round(triples=triples, pool_eps=[float(v) for v in rnd["pool_eps"]]))
        return cls(
            n=int(data["n"]),
            eps0=float(data["eps0"]),
            target_eps=float(data["target_eps"]),
            recycle=bool(data["recycle"]),
            rounds=rounds,
            boost_gate_count=int(data["boost_gate_count"]),
            refocus_gate_count=int(data["refocus_gate_count"]),
            predicted_best=float(data["predicted_best"]),
            labels=labels,
        )


def plan_rounds(
    n: int,
    eps0: float,
    target_eps: float,
    *,
    recycle: bool = False,
    labels: list[str] | None = None,
) -> CoolingPlan:
    """Greedy schedule reaching `target_eps` from n spins at `eps0`.

    Pools are keyed by exact polarization value; identical histories give
    bit-identical floats, so float keys are deterministic. Triples never mix
    pools. A pool is a list of sorted index arrays, merged and sorted only
    when it holds several; each round reshapes every pool's first 3k spins
    into its k triples and boosts once per pool, so a round costs
    O(k log k) in its k live spins and the whole schedule about O(n log n).
    Raises the infeasibility error when no pool can field a triple and the
    target is still out of reach.
    """
    if n < 3 or n != int(n):
        raise ValueError(f"need at least three spins to form a triple, got {n}")
    if not 0.0 < eps0 < 1.0:
        raise ValueError(f"eps0 must lie in (0, 1), got {eps0}")
    if not eps0 < target_eps <= 1.0:
        raise ValueError(f"target must lie in (eps0, 1], got {target_eps}")

    pools: dict[float, list[np.ndarray]] = {eps0: [np.arange(n, dtype=np.intp)]}
    rounds: list[Round] = []
    boost_gates = 0
    refocus_gates = 0

    def frontier() -> float:
        return max(pools) if pools else 0.0

    while frontier() < target_eps:
        blocks: list[np.ndarray] = []
        pool_eps: list[np.ndarray] = []
        next_pools: dict[float, list[np.ndarray]] = {}
        for value in sorted(pools, reverse=True):
            runs = pools[value]
            spins = np.sort(np.concatenate(runs)) if len(runs) > 1 else runs[0]
            end = len(spins) - len(spins) % 3
            if end:
                eps_a, eps_b, _ = _boost_marginals(value)
                block = spins[:end].reshape(-1, 3)
                blocks.append(block)
                pool_eps.append(np.full(len(block), value))
                next_pools.setdefault(eps_a, []).append(block[:, 0])
                if recycle:
                    next_pools.setdefault(eps_b, []).append(block[:, 1])
            if end < len(spins):
                next_pools.setdefault(value, []).append(spins[end:])
        if not blocks:
            best = frontier()
            raise InfeasibleError(
                f"target {target_eps:g} is unreachable with n={n}"
                f" (best reachable pool sits at {best:g})"
            )
        rnd = Round(triples=np.concatenate(blocks), pool_eps=np.concatenate(pool_eps))
        rounds.append(rnd)
        boost_gates += GATES_PER_BOOST * len(rnd.triples)
        refocus_gates += 2 * (n - 3 * len(rnd.triples))
        pools = next_pools

    return CoolingPlan(
        n=n,
        eps0=eps0,
        target_eps=target_eps,
        recycle=recycle,
        rounds=rounds,
        boost_gate_count=boost_gates,
        refocus_gate_count=refocus_gates,
        predicted_best=frontier() if rounds else eps0,
        labels=labels or [],
    )


@dataclass
class PlanResult:
    """Per-spin polarizations after executing a plan."""

    mode: str
    eps_exact: np.ndarray | None
    eps_approx: np.ndarray | None
    discrepancy: float | None

    def best(self) -> tuple[int, float]:
        """Index and value of the coldest spin (exact values preferred)."""
        eps = self.eps_exact if self.eps_exact is not None else self.eps_approx
        spin = int(np.argmax(eps))
        return spin, float(eps[spin])


def _replay(plan: CoolingPlan, joint: bool) -> np.ndarray:
    """Per-spin polarizations after the plan's triples, boosted in order.

    An uncorrelated spin is kept as its polarization alone; spins that a
    boost has correlated share a cluster: a spin list and a probability
    tensor with one axis per spin. A boost merges its spins' clusters,
    permutes their three axes and reads their new marginals. With `joint`, a
    spin is summed out of its cluster after its last triple, which keeps the
    result exact. Without it, no cluster forms: every boost sees three
    independent spins of one pool value, so a whole round is one array step
    that boosts each new pool value once.
    """
    eps = np.full(plan.n, plan.eps0)
    if not joint:
        boosts: dict[float, tuple[float, float, float]] = {}
        for rnd in plan.rounds:
            v = eps[rnd.triples]
            if not v.size:
                continue
            if (v == v[0, 0]).all():  # one pool value, the common case: no np.unique
                values, inverse = [float(v[0, 0])], 0
            else:
                mixed = (v != v[:, :1]).any(axis=1)
                if mixed.any():
                    triple = tuple(rnd.triples[np.argmax(mixed)].tolist())
                    raise ValueError(f"triple {triple} mixes polarization pools")
                values, inverse = np.unique(v[:, 0], return_inverse=True)
                values = values.tolist()
            for value in values:
                if value not in boosts:
                    boosts[value] = _boost_marginals(value)
            eps[rnd.triples] = np.array([boosts[value] for value in values])[inverse]
        return eps
    check_capacity(plan.n)
    triples = [tuple(t) for rnd in plan.rounds for t in rnd.triples.tolist()]
    last = {s: i for i, t in enumerate(triples) for s in t}
    clusters: dict[int, tuple[list[int], np.ndarray]] = {}
    for i, triple in enumerate(triples):
        parts = []
        for s in triple:
            part = clusters.get(s) or ([s], np.array([1 + eps[s], 1 - eps[s]]) / 2)
            if all(part is not p for p in parts):
                parts.append(part)
        spins = [s for part in parts for s in part[0]]
        probs = reduce(np.multiply.outer, [part[1] for part in parts])
        probs = np.moveaxis(probs, [spins.index(s) for s in triple], [0, 1, 2]).reshape(8, -1)
        spins = list(triple) + [s for s in spins if s not in triple]
        out = np.empty_like(probs)
        out[_BOOST_PERM_3] = probs
        eps[list(triple)] = [signed_bit_sum(out.reshape(-1), len(spins), j) for j in range(3)]
        done = tuple(j for j, s in enumerate(spins) if last[s] <= i)
        kept = [s for j, s in enumerate(spins) if j not in done]
        if kept:
            clusters.update(dict.fromkeys(kept, (kept, out.reshape((2,) * len(spins)).sum(done))))
    return eps


def simulate_plan(plan: CoolingPlan, mode: str = "approx") -> PlanResult:
    """Execute a plan with one engine under one of two policies.

    "approx" forgets correlations after each boost, so every boost sees
    independent spins (cost independent of the state-space size); "exact"
    keeps each cluster of correlated spins until their last triple and is
    limited by the population capacity guard; "both" runs the two and
    reports their largest per-spin difference.
    """
    if mode not in {"exact", "approx", "both"}:
        raise ValueError(f"mode must be exact, approx, or both, got {mode!r}")
    eps_approx = _replay(plan, joint=False) if mode in {"approx", "both"} else None
    eps_exact = _replay(plan, joint=True) if mode in {"exact", "both"} else None
    discrepancy = None
    if mode == "both":
        discrepancy = float(np.abs(eps_exact - eps_approx).max())
    return PlanResult(
        mode=mode, eps_exact=eps_exact, eps_approx=eps_approx, discrepancy=discrepancy
    )
