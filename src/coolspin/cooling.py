"""Entropy-pumping boosts and multi-round cooling schedules.

Boosts act on Z correlators <Z_S>, one per subset S of the spins: a spin
at eps is (1, eps), independent spins multiply, and the boost is one fixed
8x8 matrix with entries 0, +-1/2 and +-1. So `boost_exact` is exact at any
polarization up to the rounding of eps**2 and eps**3. The kernel that the
scheduler and the replay share writes the matrix's three marginal rows out
as float arithmetic in one fixed order, so its bits do not depend on BLAS.

`plan_rounds` builds a schedule: spins sit in pools keyed by their exact
polarization value, each round greedily forms disjoint triples inside every
pool that still holds three spins (coldest pool first, lowest indices
first), the first member of each triple comes out boosted, and the other
two leave the live set unless role b is recycled. A round boosts once per
pool value and keeps each pool's boosted spins as one block; the plan file
is written from the blocks, and the (k, 3) spin-index triples are built only
when the cluster engine reads them. The recorded operation count adds, on top of five gates per boost,
one refocusing echo pair (two NOT pulses) per round for every physically
present spin outside that round's triples: those couplings must be
refocused while the active spins evolve, and it is this per-round overhead
that makes the total cost grow as n log n rather than linearly. Echo pairs
compose to the identity, so they are bookkeeping only and never touch the
simulated state.

`simulate_plan` replays a plan under two policies: approx forgets every
correlation after each boost, one kernel call per block;
exact applies the same kernel if every triple is certified independent by
its spins' cones, and else keeps correlated spins in clusters until their
last triple. A planner plan whose blocks are all ranges needs neither: the
planner certifies it, plans are frozen values, and `simulate_plan` answers from the pools.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import CapacityError, InfeasibleError
from .gates import boost_circuit, circuit_permutation
from .states import IZ, as_finite, as_float, as_floats, as_int, as_ints, as_labels, as_list, as_polarization
from .states import check_budget, json_fields, memory_budget

GATES_PER_BOOST = 5
# Largest plan the plan file lists, one label per spin of every triple.
MAX_TRIPLE_SPINS = 3**15
# Traced bytes of the cone walk per spin and per live cone element (copies of 3**5..3**10 planner plans).
_WALK_SPIN_BYTES, _CONE_BYTES = 200, 32


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
# Twice the matrix has integer entries: the cluster engine applies it and halves
# each row's sum once, so like the kernel it rounds 3/2 of a subnormal once.
_BOOST_2Z = 2 * _BOOST_Z
# Correlator indices of spins a, b, c alone: the one-hot corners of the (2, 2, 2) view.
_MARGINALS = np.ravel_multi_index(tuple(np.eye(3, dtype=int)), (2, 2, 2))


def _boost_marginals(eps: float | np.ndarray) -> tuple:
    """Polarizations of roles a, b, c after boosting three independent spins at eps.

    Rows a, b, c of `_BOOST_Z @ z` for z_S = eps**|S|, summed as
    ((t0 + t4) + (t2 + t6)) + ((t1 + t5) + (t3 + t7)) over t_j = _BOOST_Z[row, j] * z_j
    with the zero terms dropped: the bits do not depend on BLAS, and eps may be an array.
    Row a reads h + h as eps and h as eps - h: the same bits where halving eps is exact,
    and 3/2 eps rounded once, not 3h, on an odd subnormal (5e-324 gave 0).
    """
    h, h3 = 0.5 * eps, 0.5 * (eps * eps * eps)
    return eps + ((eps - h) - h3), (h + h) + (h3 - h), 0.0 - eps * eps


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


def _read_only(array: np.ndarray) -> np.ndarray:
    """The array, made read-only; no one else may hold it writeable."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True, init=False, eq=False)
class Round:
    """Disjoint boost triples of one round, stored as blocks; frozen, so its caches never go stale.

    A round is a tuple of blocks (pool value, spins): each three consecutive
    spins of a block form one triple boosted at that value. The planner's
    spins are a `range` per pool or, where float ties merged runs, a sorted
    index array; a round keeps a read-only copy of any other index array.
    `Round(triples, pool_eps)` checks (k, 3) integer spin indices and one finite
    pool value per triple, and groups neighbours with equal bits into blocks.
    `triples` and `pool_eps` are built, read-only, from the blocks when first read.
    """

    blocks: tuple[tuple[float, range | np.ndarray], ...]

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
        # Frozen fields are set through the instance dict; each index array is copied, read-only.
        vars(self)["blocks"] = tuple((v, r if isinstance(r, range) else _read_only(np.array(r))) for v, r in blocks)

    @cached_property
    def triples(self) -> np.ndarray:
        runs = [_indices(spins) for _, spins in self.blocks]
        return _read_only(np.concatenate([np.empty(0, np.intp), *runs])).reshape(-1, 3)

    @cached_property
    def pool_eps(self) -> np.ndarray:
        values = np.array([value for value, _ in self.blocks], dtype=float)
        counts = np.array([len(spins) // 3 for _, spins in self.blocks], dtype=np.intp)
        return _read_only(np.repeat(values, counts))

    @cached_property
    def boosts(self) -> int:
        """Number of triples, counted from the blocks once."""
        return sum(len(spins) for _, spins in self.blocks) // 3

    def __eq__(self, other) -> bool:
        if not isinstance(other, Round):
            return NotImplemented
        return np.array_equal(self.triples, other.triples) and np.array_equal(
            self.pool_eps, other.pool_eps
        )


@dataclass(frozen=True)
class CoolingPlan:
    """A full schedule, frozen; its operation-count ledger follows from the rounds.

    Rounds and labels are tuples; empty `labels` stand for s0..s{n-1}, built when asked for.
    `dataclasses.replace` and `from_dict` derive plans without the planner's two fields below.
    """

    n: int
    eps0: float
    target_eps: float
    recycle: bool
    rounds: tuple[Round, ...]
    predicted_best: float
    labels: tuple[str, ...] = ()
    # Set by the planner alone: the coldest pool's lowest spin, and its certificate (see `plan_rounds`).
    best_spin: int | None = field(default=None, init=False, compare=False, repr=False)
    _certified: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        n, labels, rounds = as_int("n", self.n, positive=True), tuple(self.labels), tuple(self.rounds)
        if not isinstance(self.recycle, bool):
            raise ValueError(f"recycle must be true or false, got {self.recycle!r}")
        if labels and len(labels) != n:
            raise ValueError("need one label per spin")
        eps0 = as_polarization("eps0", self.eps0)
        if len(set(labels)) < len(labels):
            raise ValueError(f"label {_repeated(labels)} names more than one spin")
        target, best = as_finite("target_eps", self.target_eps), as_finite("predicted_best", self.predicted_best)
        vars(self).update(n=n, eps0=eps0, target_eps=target, predicted_best=best, labels=labels, rounds=rounds)
        # The replay boosts a round's triples together, so they must be disjoint, and
        # each block must hold one or more whole triples: an empty block counts as one
        # spin, so the test for whole triples refuses it too. A range, a slice to the replay,
        # steps upward. A round of n spins at most is expanded, ranges too, into one sort.
        for r, rnd in enumerate(self.rounds, start=1):
            for value, spins in rnd.blocks:
                as_finite(f"round {r}: pool value", value)
                size = len(spins)
                if (size or 1) % 3:
                    what = f"a block of {size} spins does not split into triples" if size else "a block holds no spins"
                    raise ValueError(f"round {r}: {what}")
                if isinstance(spins, range) and spins.step < 0:
                    raise ValueError(f"round {r}: block {spins} must step upward")
            if 3 * rnd.boosts > self.n:
                raise ValueError(f"round {r}: its blocks hold {3 * rnd.boosts} spins, more than the {self.n} there are")
            if not rnd.blocks:
                continue
            used = np.concatenate([_indices(spins) for _, spins in rnd.blocks])
            if not 0 <= used.min() <= used.max() < self.n:
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
        """The plan file's fields, listed from each round's blocks: no triple or pool array is built."""
        if self.n > MAX_TRIPLE_SPINS:
            raise CapacityError(
                f"{self.n} spins exceeds MAX_TRIPLE_SPINS = {MAX_TRIPLE_SPINS}, the largest plan whose file is written"
            )
        labels = self.labels or [f"s{i}" for i in range(self.n)]
        rounds = []
        for rnd in self.rounds:
            names, pool_eps = [], []
            for value, spins in rnd.blocks:
                names += [labels[s] for s in (spins if isinstance(spins, range) else spins.tolist())]
                pool_eps += [float(value)] * (len(spins) // 3)  # a numpy scalar writes as a float
            rounds.append({"triples": [names[i : i + 3] for i in range(0, len(names), 3)], "pool_eps": pool_eps})
        return {
            "n": self.n,
            "eps0": self.eps0,
            "target_eps": self.target_eps,
            "recycle": self.recycle,
            "labels": list(labels),
            "rounds": rounds,
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

    A plan whose blocks are all ranges is certified. A pool of several runs
    becomes an array, and slices of an array stay arrays, so a range block was
    sliced from `range(n)` only through pools of one run. By induction its
    spins have disjoint cones (an a- or b-output joins its own triple's
    disjoint cones, a leftover keeps its own), so every triple boosts three
    independent spins at the pool value (Schulman & Vazirani, STOC 1999). Ties
    among pools that no round boosts leave the certificate alone. Only here do
    blocks skip the plan's checks.
    """
    if n < 3 or n != int(n):
        raise ValueError(f"need at least three spins to form a triple, got {n}")
    eps0, target_eps = as_float("eps0", eps0), as_float("target_eps", target_eps)
    if not 0.0 < eps0 < 1.0:
        raise ValueError(f"eps0 must lie in (0, 1), got {eps0}")
    if not eps0 < target_eps <= 1.0:
        raise ValueError(f"target must lie in (eps0, 1], got {target_eps}")

    n = int(n)
    plan = CoolingPlan(n, eps0, target_eps, recycle, (), eps0, labels or ())  # checked first; rounds, best set last
    # Tuples, not lists: the garbage collector stops tracking a tuple of ranges,
    # and a list per pool made the k = 17 recycled plan at n = 1e9 25% slower.
    pools: dict[float, tuple[range | np.ndarray, ...]] = {eps0: (range(n),)}
    rounds: list[Round] = []
    while max(pools) < target_eps:  # a round that boosts leaves the pools nonempty
        blocks: list[tuple[float, range | np.ndarray]] = []
        next_pools: dict[float, tuple[range | np.ndarray, ...]] = {}
        for value in sorted(pools, reverse=True):
            runs = pools[value]
            spins = runs[0] if len(runs) == 1 else _read_only(np.sort(np.concatenate([_indices(r) for r in runs])))
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
        rounds.append(Round.__new__(Round))  # no copies: the planner's arrays are its own, and read-only
        vars(rounds[-1])["blocks"] = tuple(blocks)
        pools = next_pools

    best_spin = min(int(run[0]) for run in pools[max(pools)])
    certified = all(isinstance(run, range) for rnd in rounds for _, run in rnd.blocks)
    vars(plan).update(rounds=tuple(rounds), predicted_best=max(pools), best_spin=best_spin, _certified=certified)
    return plan


@dataclass(frozen=True)
class PlanResult:
    """A plan's per-spin polarizations and, in "both" mode, their largest difference, each computed when read."""

    mode: str
    plan: CoolingPlan = field(repr=False)

    @cached_property
    def eps_approx(self) -> np.ndarray | None:
        return None if self.mode == "exact" else _replay_approx(self.plan)

    @cached_property
    def eps_exact(self) -> np.ndarray | None:
        return None if self.mode == "approx" else _replay_exact(self.plan)

    @cached_property
    def discrepancy(self) -> float | None:
        if self.mode != "both":
            return None
        return 0.0 if self.plan._certified else float(np.abs(self.eps_approx - self.eps_exact).max())

    def best(self) -> tuple[int, float]:
        """The coldest spin and its value: a planner plan's coldest pool in approx mode, and in any if certified."""
        plan = self.plan
        if plan._certified or (self.mode == "approx" and plan.best_spin is not None):
            return plan.best_spin, plan.predicted_best
        eps = self.eps_approx if self.mode == "approx" else self.eps_exact
        spin = int(np.argmax(eps))
        return spin, float(eps[spin])


def _replay_approx(plan: CoolingPlan) -> np.ndarray:
    """Per-spin polarizations under the approx policy, block by block.

    Each triple of a block (value, run) boosts three independent spins that
    must all hold `value`, so one kernel call gives the marginals of roles
    a, b and c, `run[0::3]`, `[1::3]` and `[2::3]`. A spin that holds
    another value (a loaded plan whose `pool_eps` disagree) is refused.
    """
    check_budget(8 * plan.n, f"the per-spin replay of {plan.n} spins")
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
            held[0::3], held[1::3], held[2::3] = _boost_marginals(float(value))  # a numpy scalar may be float32
            eps[index] = held
    return eps


def _replay_exact(plan: CoolingPlan) -> np.ndarray:
    """Per-spin polarizations: approx's for a certified plan, else `_walk_cones`'s or `_replay_clusters`'s."""
    if plan._certified:
        return _replay_approx(plan)
    eps = _walk_cones(plan)
    return _replay_clusters(plan) if eps is None else eps


def _walk_cones(plan: CoolingPlan) -> np.ndarray | None:
    """Per-spin polarizations if every triple is certified independent by its spins' cones, else None.

    A spin's cone, the original spins its bit depends on, is {s} until a boost
    joins its triple's cones into one frozenset, dropped after its last round.
    Bit-equal spins with disjoint cones are independent: the kernel is exact.
    Each cone's elements count once per live spin that keeps it ({s} too).
    """
    budget, boosted = memory_budget(), 3 * sum(rnd.boosts for rnd in plan.rounds)
    fixed, live = _WALK_SPIN_BYTES * plan.n + 8 * boosted, plan.n
    check_budget(fixed + _CONE_BYTES * live, "the cone walk", budget)
    eps, last, cones = np.full(plan.n, plan.eps0), np.zeros(plan.n, dtype=np.int32), {}
    runs = [(r, _indices(run)) for r, rnd in enumerate(plan.rounds, start=1) for _, run in rnd.blocks]
    for r, index in runs:
        last[index] = r
    for r, index in runs:
        held = eps[index]
        bits = held.view(np.int64).tolist()
        if bits[0::3] != bits[1::3] or bits[0::3] != bits[2::3]:
            return None
        spins = zip(index.tolist(), (last[index] > r).tolist())
        for triple in zip(spins, spins, spins):
            parts = [cones.pop(s, None) or (s,) for s, _ in triple]
            size, kept = sum(map(len, parts)), [s for s, keep in triple if keep]
            live += size * (len(kept) - 1)
            check_budget(fixed + _CONE_BYTES * live, "the cone walk", budget)
            cone = frozenset().union(*parts)
            if len(cone) < size:
                return None
            cones.update(dict.fromkeys(kept, cone))
        value = float(held[0]) if len(set(bits)) == 1 else held[0::3]  # a scalar is 20x faster
        held[0::3], held[1::3], held[2::3] = _boost_marginals(value)
        eps[index] = held
    return eps


def _replay_clusters(plan: CoolingPlan) -> np.ndarray:
    """Per-spin polarizations after the plan's triples, boosted in order.

    An uncorrelated spin is kept as its polarization alone; spins that a
    boost has correlated share a cluster: a spin list and a correlator
    tensor with one axis per spin. A boost merges its spins' clusters,
    applies the boost matrix to their three axes and reads their marginals.
    A spin leaves its cluster after its last triple (index 0 on its axis),
    which keeps the result exact. Before a merge is allocated, its bytes and
    the live clusters' together are checked against the budget.
    """
    eps = np.full(plan.n, plan.eps0)
    triples = [tuple(t) for rnd in plan.rounds for t in rnd.triples.tolist()]
    last = {s: i for i, t in enumerate(triples) for s in t}
    clusters: dict[int, tuple[list[int], np.ndarray]] = {}
    budget, live = memory_budget(), 0
    for i, triple in enumerate(triples):
        parts = []
        for s in triple:
            part = clusters.pop(s, None)
            if part is None:
                parts.append(([s], np.array([1.0, eps[s]])))
            elif all(part is not p for p in parts):
                parts.append(part)
                live -= part[1].size
        spins = [s for part in parts for s in part[0]]
        check_budget(8 * (live + 2 ** len(spins)), f"a {len(spins)}-spin merge with the live clusters", budget)
        merged = reduce(np.multiply.outer, [part[1] for part in parts])
        merged = np.moveaxis(merged, [spins.index(s) for s in triple], [0, 1, 2]).reshape(8, -1)
        spins = list(triple) + [s for s in spins if s not in triple]
        out = _BOOST_2Z @ merged
        out *= 0.5
        eps[list(triple)] = out[_MARGINALS, 0]
        kept = [s for s in spins if last[s] > i]
        if kept:
            index = tuple(slice(None) if last[s] > i else 0 for s in spins)
            clusters.update(dict.fromkeys(kept, (kept, out.reshape((2,) * len(spins))[index])))
            live += 2 ** len(kept)
    return eps


def simulate_plan(plan: CoolingPlan, mode: str = "approx") -> PlanResult:
    """Execute a plan under one of two policies.

    "approx" forgets correlations after each boost, one kernel call per
    block; "exact" costs as much where cones certify every triple and else
    keeps clusters under the memory budget; "both" runs the two
    and reports their largest per-spin difference. The planner's coldest pool
    (`best_spin`) answers approx `best`, and every mode on a plan it certified
    (all blocks ranges, see `plan_rounds`), with a difference of 0. A replay those
    answers spare waits until `eps_approx` or `eps_exact` is read; the others
    run here, so a pool-value or capacity error is raised by this call.
    """
    if mode not in {"exact", "approx", "both"}:
        raise ValueError(f"mode must be exact, approx, or both, got {mode!r}")
    result = PlanResult(mode, plan)
    if not plan._certified:  # replayed now, so that this call raises a pool-value or capacity error
        if mode == "both" or plan.best_spin is None:  # a planner plan's pools hold their values
            result.eps_approx
        if mode != "approx":
            result.eps_exact
    return result
