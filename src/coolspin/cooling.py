"""Entropy-pumping boosts and multi-round cooling schedules.

Boosts act on Z correlators <Z_S>, one per subset S of the spins: a spin
at eps is (1, eps), independent spins multiply, and the boost is one fixed
8x8 matrix with entries 0, +-1/2 and +-1. So `boost_exact` is exact at any
polarization up to the rounding of eps**2 and eps**3. The kernel that the
scheduler and the approx replay share writes the matrix's three marginal
rows out as float arithmetic in one fixed order, so its bits do not depend
on BLAS.

`plan_rounds` builds a schedule: spins sit in pools keyed by their exact
polarization value, each round greedily forms disjoint triples inside every
pool that still holds three spins (coldest pool first, lowest indices
first), the first member of each triple comes out boosted, and the other
two leave the live set unless role b is recycled. A round boosts once per
pool value, keeps each pool's boosted spins as one block, and builds its
(k, 3) spin-index triples only when the plan file or the exact replay reads
them. The recorded operation count adds, on top of five gates per boost,
one refocusing echo pair (two NOT pulses) per round for every physically
present spin outside that round's triples: those couplings must be
refocused while the active spins evolve, and it is this per-round overhead
that makes the total cost grow as n log n rather than linearly. Echo pairs
compose to the identity, so they are bookkeeping only and never touch the
simulated state.

`simulate_plan` replays a plan under two policies, each with its own
engine: exact walks the triples and keeps correlated spins together until
their last triple; approx forgets every correlation after each boost, so
it makes one kernel call per block.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import CapacityError, InfeasibleError
from .gates import boost_circuit, circuit_permutation
from .states import IZ, MAX_POPULATION_SPINS, as_finite, as_floats, as_int, as_ints, as_labels
from .states import as_list, as_polarization, capacity_limit, check_capacity, json_fields

GATES_PER_BOOST = 5
# Largest plan whose spin-index triples are built, for the plan file and the
# per-spin replays: about n/2 triples, 170 MB of indices at 3**15 spins.
MAX_TRIPLE_SPINS = 3**15


@dataclass
class BoostReport:
    """Exact polarizations of the three roles after one boost."""

    eps_in: float
    eps_a: float
    eps_b: float
    eps_c: float
    enhancement: float
    gate_count: int = GATES_PER_BOOST


# Sylvester-Hadamard matrices: W @ probs are the Z correlators, and W @ W = 2**n.
_H = np.array([np.ones(2), 2 * IZ])
_W_3 = np.kron(np.kron(_H, _H), _H)
_BOOST_Z = _W_3[:, circuit_permutation(boost_circuit(), 3)] @ _W_3 / 8
# Correlator indices of spins a, b, c alone: the one-hot corners of the (2, 2, 2) view.
_MARGINALS = np.ravel_multi_index(tuple(np.eye(3, dtype=int)), (2, 2, 2))


def _boost_marginals(eps: float | np.ndarray) -> tuple:
    """Polarizations of roles a, b, c after boosting three independent spins at eps.

    Rows a, b, c of `_BOOST_Z @ z` for z_S = eps**|S|, summed as
    ((t0 + t4) + (t2 + t6)) + ((t1 + t5) + (t3 + t7)) over t_j = _BOOST_Z[row, j] * z_j
    with the zero terms dropped: the bits do not depend on BLAS, and eps may be an array.
    """
    h, h3 = 0.5 * eps, 0.5 * (eps * eps * eps)
    return (h + h) + (h - h3), (h + h) + (h3 - h), 0.0 - eps * eps


def boost_exact(eps: float) -> BoostReport:
    """One boost on three spins of equal polarization eps in [0, 1].

    At eps = 0 the enhancement column reports the analytic limit 3/2.
    """
    eps = as_polarization("polarization", eps)
    eps_a, eps_b, eps_c = _boost_marginals(eps)
    enhancement = eps_a / eps if eps > 0.0 else 1.5
    return BoostReport(eps_in=eps, eps_a=eps_a, eps_b=eps_b, eps_c=eps_c, enhancement=enhancement)


def conditional_polarization_after_cnot(eps: float) -> tuple[float, float]:
    """Polarization of the first spin given the second, after CNOT(1st->2nd).

    Returns the pair for the second spin reading 0 and 1 respectively. The
    matched-parity branch concentrates polarization to 2 eps / (1 + eps**2);
    the other branch holds none, and at eps = 1, where it has zero weight,
    reports 0 by convention.
    """
    eps = as_polarization("polarization", eps)
    return (eps + eps) / (1.0 + eps * eps), 0.0


def _repeated(items: list):
    """The first item that occurs more than once."""
    return next(item for item, k in Counter(items).items() if k > 1)


def _indices(run: range | np.ndarray) -> np.ndarray:
    """A run of spin indices as an integer array."""
    if isinstance(run, range):
        return np.arange(run.start, run.stop, run.step, dtype=np.intp)
    return run


def _check_triple_budget(n: int) -> None:
    """Refuse to build the spin triples of a plan larger than MAX_TRIPLE_SPINS."""
    if n > MAX_TRIPLE_SPINS:
        raise CapacityError(
            f"{n} spins exceeds MAX_TRIPLE_SPINS = {MAX_TRIPLE_SPINS}, the largest plan"
            " whose spin triples are built (for the plan file and the per-spin replays)"
        )


class Round:
    """Disjoint boost triples of one round, stored as blocks.

    A round is a list of blocks (pool value, spins): each three consecutive
    spins of a block form one triple boosted at that value. The planner
    hands over each pool's boosted spins as one block, a `range` or, where
    float ties merged runs, a sorted index array. `Round(triples, pool_eps)`
    checks a (k, 3) integer array of spin indices and one finite pool value
    per triple, and groups consecutive pool values with equal bits into
    index-array blocks. `triples` and `pool_eps`, the (k,) array of each
    triple's pool value, are built from the blocks when first read.
    """

    def __init__(self, triples=(), pool_eps=(), *, blocks=None):
        if blocks is None:
            triples, pool_eps = as_ints("boost triples", triples), as_floats("pool_eps", pool_eps)
            if triples.shape != (0,) and (triples.ndim != 2 or triples.shape[1] != 3):
                raise ValueError("every boost triple must name three spins")
            if pool_eps.shape != (len(triples),) or not np.isfinite(pool_eps).all():
                raise ValueError("pool_eps must hold one finite value per triple")
            bits, spins = pool_eps.view(np.int64), triples.reshape(-1)
            starts = [0, *(np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist()] if bits.size else []
            stops = [*starts[1:], len(bits)]
            blocks = [(float(pool_eps[a]), spins[3 * a : 3 * b]) for a, b in zip(starts, stops)]
        self.blocks: list[tuple[float, range | np.ndarray]] = blocks

    @cached_property
    def triples(self) -> np.ndarray:
        runs = [_indices(spins) for _, spins in self.blocks]
        return np.concatenate([np.empty(0, np.intp), *runs]).reshape(-1, 3)

    @cached_property
    def pool_eps(self) -> np.ndarray:
        values = np.array([value for value, _ in self.blocks], dtype=float)
        counts = np.array([len(spins) // 3 for _, spins in self.blocks], dtype=np.intp)
        return np.repeat(values, counts)

    @cached_property
    def boosts(self) -> int:
        """Number of triples, counted from the blocks once."""
        return sum(len(spins) for _, spins in self.blocks) // 3

    def __repr__(self) -> str:
        return f"Round(blocks={self.blocks!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Round):
            return NotImplemented
        return np.array_equal(self.triples, other.triples) and np.array_equal(
            self.pool_eps, other.pool_eps
        )


@dataclass
class CoolingPlan:
    """A full schedule; its operation-count ledger follows from the rounds.

    An empty `labels` list stands for the default names s0..s{n-1}, which
    are only built when a label is asked for or the plan is written out.
    """

    n: int
    eps0: float
    target_eps: float
    recycle: bool
    rounds: list[Round]
    predicted_best: float
    labels: list[str] = field(default_factory=list)
    # Lowest spin of the coldest pool, set by the planner: the approx replay's best.
    best_spin: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.n = as_int("n", self.n, positive=True)
        if not isinstance(self.recycle, bool):
            raise ValueError(f"recycle must be true or false, got {self.recycle!r}")
        if self.labels and len(self.labels) != self.n:
            raise ValueError("need one label per spin")
        self.eps0 = as_polarization("eps0", self.eps0)
        if len(set(self.labels)) < len(self.labels):
            raise ValueError(f"label {_repeated(self.labels)} names more than one spin")
        self.target_eps = as_finite("target_eps", self.target_eps)
        self.predicted_best = as_finite("predicted_best", self.predicted_best)
        # The replay boosts a round's triples together, so they must be disjoint. A
        # range block is a planner pool, cut from 0..n-1 apart from the round's other
        # pools: it is only bounded, in O(1), and a round holds n spins at most. Index
        # arrays are checked for repeats.
        for r, rnd in enumerate(self.rounds, start=1):
            runs = []
            for _, spins in rnd.blocks:
                if len(spins) % 3:
                    raise ValueError(f"round {r}: a block of {len(spins)} spins does not split into triples")
                if not isinstance(spins, range):
                    runs.append(spins)
                elif spins and not (spins.step > 0 and spins.start >= 0 and spins[-1] < self.n):
                    raise ValueError(f"round {r}: block {spins} must step upward inside 0..{self.n - 1}")
            if 3 * rnd.boosts > self.n:
                raise ValueError(f"round {r}: its blocks hold {3 * rnd.boosts} spins, more than the {self.n} there are")
            if not runs:
                continue
            used = np.concatenate(runs)
            if used.size and not 0 <= used.min() <= used.max() < self.n:
                raise ValueError(f"round {r}: a spin index lies outside 0..{self.n - 1}")
            seen = np.sort(used)
            if (seen[1:] == seen[:-1]).any():
                raise ValueError(f"round {r}: spin {self.label(_repeated(used.tolist()))} is used twice")

    @property
    def boost_gate_count(self) -> int:
        """Five gates per boost triple."""
        return GATES_PER_BOOST * sum(rnd.boosts for rnd in self.rounds)

    @property
    def refocus_gate_count(self) -> int:
        """One echo pair per round for every spin outside that round's triples."""
        return sum(2 * (self.n - 3 * rnd.boosts) for rnd in self.rounds)

    @property
    def total_gate_count(self) -> int:
        return self.boost_gate_count + self.refocus_gate_count

    def label(self, spin: int) -> str:
        """Name of one spin: its given label, or s{spin} by default."""
        return self.labels[spin] if self.labels else f"s{spin}"

    def to_dict(self) -> dict:
        _check_triple_budget(self.n)
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
        ledger = ("boost_gate_count", "refocus_gate_count", "total_gate_count")
        names = ("n", "eps0", "target_eps", "recycle", "rounds", "predicted_best", "labels", *ledger)
        n, eps0, target, recycle, rounds, best, labels, *counts = json_fields("a plan", data, names)
        labels = as_labels("labels", labels)
        index = {lab: i for i, lab in enumerate(labels)}
        loaded = []
        for r, rnd in enumerate(as_list("rounds", rounds), start=1):
            triples, pool_eps = json_fields(f"round {r}", rnd, ("triples", "pool_eps"))
            triples = as_list(f"round {r} triples", triples)
            if any(not isinstance(t, list) or len(t) != 3 for t in triples):
                raise ValueError(f"round {r}: every boost triple must name three spins")
            unknown = [s for t in triples for s in t if not isinstance(s, str) or s not in index]
            if unknown:
                raise ValueError(f"round {r}: unknown spin {unknown[0]}")
            spins, pool_eps = [[index[s] for s in t] for t in triples], as_floats("pool_eps", pool_eps)
            try:
                loaded.append(Round(spins, pool_eps))
            except ValueError as err:  # the one check left: a finite pool value per triple
                raise ValueError(f"round {r}: {err}") from None
        plan = cls(n, eps0, target, recycle, loaded, best, labels)
        for name, count in zip(ledger, counts):
            if as_int(name, count) != getattr(plan, name):
                raise ValueError(f"{name} is {count!r}, but the rounds give {getattr(plan, name)}")
        return plan


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
    pools. A pool is a tuple of index runs, starting as `(range(n),)`; its
    first 3k spins are the round's block, its a-spins `spins[0:end:3]` (and,
    when recycling, its b-spins `spins[1:end:3]`) join the boosted pools as
    runs, and `spins[end:]` stays. Slicing keeps a range a range, so a round
    costs O(pools) and one boost per pool value; only a pool that float ties
    fed several runs (eps0 below about 1e-9) is merged into a sorted index
    array when its round comes. Raises the infeasibility error when no pool
    can field a triple and the target is still out of reach.
    """
    if n < 3 or n != int(n):
        raise ValueError(f"need at least three spins to form a triple, got {n}")
    if not 0.0 < eps0 < 1.0:
        raise ValueError(f"eps0 must lie in (0, 1), got {eps0}")
    if not eps0 < target_eps <= 1.0:
        raise ValueError(f"target must lie in (eps0, 1], got {target_eps}")

    n = int(n)
    # Tuples, not lists: the garbage collector stops tracking a tuple of ranges,
    # and a list per pool made the k = 17 recycled plan at n = 1e9 25% slower.
    pools: dict[float, tuple[range | np.ndarray, ...]] = {eps0: (range(n),)}
    rounds: list[Round] = []
    while max(pools) < target_eps:  # a round that boosts leaves the pools nonempty
        blocks: list[tuple[float, range | np.ndarray]] = []
        next_pools: dict[float, tuple[range | np.ndarray, ...]] = {}
        for value in sorted(pools, reverse=True):
            runs = pools[value]
            spins = runs[0] if len(runs) == 1 else np.sort(np.concatenate([_indices(r) for r in runs]))
            size = len(spins)
            end = size - size % 3
            if end:
                eps_a, eps_b, _ = _boost_marginals(value)
                blocks.append((value, spins[:end]))
                next_pools[eps_a] = next_pools.get(eps_a, ()) + (spins[0:end:3],)
                if recycle:
                    next_pools[eps_b] = next_pools.get(eps_b, ()) + (spins[1:end:3],)
            if end < size:
                next_pools[value] = next_pools.get(value, ()) + (spins[end:],)
        if not blocks:
            # Twelve digits, as the CLI prints, or in full where they read alike.
            target, best = f"{target_eps:.12g}", f"{max(pools):.12g}"
            if best == target:
                target, best = repr(float(target_eps)), repr(float(max(pools)))
            raise InfeasibleError(
                f"target {target} is unreachable with n={n} (best reachable pool sits at {best})"
            )
        rounds.append(Round(blocks=blocks))
        pools = next_pools

    plan = CoolingPlan(
        n=n,
        eps0=eps0,
        target_eps=target_eps,
        recycle=recycle,
        rounds=rounds,
        predicted_best=max(pools),
        labels=labels or [],
    )
    plan.best_spin = min(int(run[0]) for run in pools[plan.predicted_best])
    return plan


@dataclass
class PlanResult:
    """Per-spin polarizations after executing a plan; `eps_approx` is replayed when first read."""

    mode: str
    plan: CoolingPlan = field(repr=False)
    eps_exact: np.ndarray | None = None
    discrepancy: float | None = None

    @cached_property
    def eps_approx(self) -> np.ndarray | None:
        return None if self.mode == "exact" else _replay_approx(self.plan)

    def best(self) -> tuple[int, float]:
        """Index and value of the coldest spin (exact values preferred).

        Without exact values, a plan that knows its `best_spin` answers from its coldest pool.
        """
        if self.eps_exact is None and self.plan.best_spin is not None:
            return self.plan.best_spin, self.plan.predicted_best
        eps = self.eps_exact if self.eps_exact is not None else self.eps_approx
        spin = int(np.argmax(eps))
        return spin, float(eps[spin])


def _replay_approx(plan: CoolingPlan) -> np.ndarray:
    """Per-spin polarizations under the approx policy, block by block.

    Each triple of a block (value, run) boosts three independent spins that
    must all hold `value`, so one kernel call gives the marginals of roles
    a, b and c, `run[0::3]`, `[1::3]` and `[2::3]`. A spin that holds
    another value (a loaded plan whose `pool_eps` disagree) is refused.
    """
    # Past this budget `both` would fill n floats here before the exact engine refuses.
    _check_triple_budget(plan.n)
    eps = np.full(plan.n, plan.eps0)
    for rnd in plan.rounds:
        for value, run in rnd.blocks:
            index = slice(run.start, run.stop, run.step) if isinstance(run, range) else run
            held = eps[index]  # a strided view for a range, a gather for an index array
            i = int(np.argmax(held != value))
            if held[i] != value:
                triple = tuple(_indices(run)[i - i % 3 : i - i % 3 + 3].tolist())
                raise ValueError(
                    f"triple {triple} mixes polarization pools: spin {triple[i % 3]}"
                    f" holds {float(held[i])!r}, its pool value is {value!r}"
                )
            held[0::3], held[1::3], held[2::3] = _boost_marginals(value)
            eps[index] = held
    return eps


def _replay_exact(plan: CoolingPlan) -> np.ndarray:
    """Per-spin polarizations after the plan's triples, boosted in order.

    An uncorrelated spin is kept as its polarization alone; spins that a
    boost has correlated share a cluster: a spin list and a correlator
    tensor with one axis per spin. A boost merges its spins' clusters,
    applies the boost matrix to their three axes and reads their marginals.
    A spin leaves its cluster after its last triple (index 0 on its axis),
    which keeps the result exact, and each merged cluster is checked
    against the spin budget, read once per replay, before it is allocated.
    """
    _check_triple_budget(plan.n)
    eps = np.full(plan.n, plan.eps0)
    triples = [tuple(t) for rnd in plan.rounds for t in rnd.triples.tolist()]
    last = {s: i for i, t in enumerate(triples) for s in t}
    clusters: dict[int, tuple[list[int], np.ndarray]] = {}
    limit = capacity_limit(MAX_POPULATION_SPINS)
    for i, triple in enumerate(triples):
        parts = []
        for s in triple:
            part = clusters.get(s) or ([s], np.array([1.0, eps[s]]))
            if all(part is not p for p in parts):
                parts.append(part)
        spins = [s for part in parts for s in part[0]]
        check_capacity(len(spins), limit=limit)
        merged = reduce(np.multiply.outer, [part[1] for part in parts])
        merged = np.moveaxis(merged, [spins.index(s) for s in triple], [0, 1, 2]).reshape(8, -1)
        spins = list(triple) + [s for s in spins if s not in triple]
        out = _BOOST_Z @ merged
        eps[list(triple)] = out[_MARGINALS, 0]
        kept = [s for s in spins if last[s] > i]
        if kept:
            index = tuple(slice(None) if last[s] > i else 0 for s in spins)
            clusters.update(dict.fromkeys(kept, (kept, out.reshape((2,) * len(spins))[index])))
    return eps


def simulate_plan(plan: CoolingPlan, mode: str = "approx") -> PlanResult:
    """Execute a plan under one of two policies, each with its own engine.

    "approx" forgets correlations after each boost, so each block costs one
    kernel call; "exact" keeps each cluster of correlated spins until their
    last triple, under the population capacity guard; "both" runs the two
    and reports their largest per-spin difference. `plan_rounds` records
    the coldest pool's lowest spin as `best_spin`, which answers the approx
    `best`, so the approx replay waits until `eps_approx` is read; a plan
    without it is replayed at once, which checks that every spin of a block
    holds its pool value.
    """
    if mode not in {"exact", "approx", "both"}:
        raise ValueError(f"mode must be exact, approx, or both, got {mode!r}")
    result = PlanResult(mode=mode, plan=plan)
    if mode == "both" or plan.best_spin is None:
        eps_approx = result.eps_approx
    if mode != "approx":
        result.eps_exact = _replay_exact(plan)
    if mode == "both":
        result.discrepancy = float(np.abs(result.eps_exact - eps_approx).max())
    return result
