"""Independent reference computations that pin expected test values.

Nothing in here imports the package under test. Gates act on explicit bit
tuples through their truth tables, marginals come from direct probability
propagation, the transfer bound comes from exhaustive permutation search,
and polynomial identities are proved in exact rational arithmetic. Run the
module directly to print the pinned numbers.
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
from fractions import Fraction

import numpy as np

# CODATA 2018 values, written out so this file shares no constants code with
# the package (which derives hbar from the exact SI value of h).
HBAR = 1.054571817e-34
KB = 1.380649e-23


# --- gate truth tables on bit tuples, first operand(s) = control(s) ---------

def not_gate(bits, t):
    out = list(bits)
    out[t] ^= 1
    return tuple(out)


def cnot(bits, c, t):
    out = list(bits)
    out[t] ^= out[c]
    return tuple(out)


def toffoli(bits, c1, c2, t):
    out = list(bits)
    out[t] ^= out[c1] & out[c2]
    return tuple(out)


def fredkin(bits, c, q1, q2):
    out = list(bits)
    if out[c]:
        out[q1], out[q2] = out[q2], out[q1]
    return tuple(out)


def boost_output(bits):
    """One boost step on (a, b, c): CNOT(b->c), NOT(c), controlled swap."""
    s = cnot(bits, 1, 2)
    s = not_gate(s, 2)
    return fredkin(s, 2, 0, 1)


# --- probability propagation -------------------------------------------------

def product_state(eps_list):
    """Joint distribution over bit tuples for independent spins.

    Bit 0 carries probability (1 + eps)/2.
    """
    dist = {(): 1}
    for eps in eps_list:
        nxt = {}
        for bits, p in dist.items():
            nxt[bits + (0,)] = p * (1 + eps) / 2
            nxt[bits + (1,)] = p * (1 - eps) / 2
        dist = nxt
    return dist


def polarization_of(dist, j):
    # fsum: a plain sum of 2**n float terms drifts by more than 1e-14 near eps = 1.
    return math.fsum(p if bits[j] == 0 else -p for bits, p in dist.items())


def boost_marginals(eps):
    """(eps_a, eps_b, eps_c) after one boost on three equal spins."""
    dist = product_state([eps, eps, eps])
    out = {}
    for bits, p in dist.items():
        ob = boost_output(bits)
        out[ob] = out.get(ob, 0) + p
    return tuple(polarization_of(out, j) for j in range(3))


def boost_marginals_rational(eps: Fraction):
    """Same propagation in exact rational arithmetic."""
    half = Fraction(1, 2)
    probs = {}
    for bits in itertools.product((0, 1), repeat=3):
        p = Fraction(1)
        for b in bits:
            p *= half + eps / 2 if b == 0 else half - eps / 2
        ob = boost_output(bits)
        probs[ob] = probs.get(ob, Fraction(0)) + p
    return tuple(
        sum(p if bits[j] == 0 else -p for bits, p in probs.items())
        for j in range(3)
    )


def prove_boost_closed_forms(samples=12):
    """Exact-match the propagated marginals against the closed forms.

    Both sides are polynomials in eps of degree <= 3, so agreement on more
    than four rational points is a proof of identity.
    """
    for k in range(1, samples + 1):
        eps = Fraction(k, samples + 3)
        got = boost_marginals_rational(eps)
        want = (
            eps * (3 - eps**2) / 2,
            eps * (1 + eps**2) / 2,
            -(eps**2),
        )
        if got != want:
            return False
    return True


def conditional_after_cnot(eps):
    """Polarization of b given the post-CNOT(b->c) value of c."""
    dist = product_state([eps, eps, eps])
    moved = {}
    for bits, p in dist.items():
        ob = cnot(bits, 1, 2)
        moved[ob] = moved.get(ob, 0) + p
    cond = []
    for c_val in (0, 1):
        sel = {b: p for b, p in moved.items() if b[2] == c_val}
        tot = sum(sel.values())
        # A branch that never occurs reports 0, as the package does.
        cond.append(sum(p if b[1] == 0 else -p for b, p in sel.items()) / tot if tot else 0)
    return tuple(cond)


# --- thermodynamic references ------------------------------------------------

def entropy_binary(eps):
    h = 0.0
    for p in ((1 + eps) / 2, (1 - eps) / 2):
        if p > 0:
            h -= p * math.log2(p)
    return h


def kmax(n, eps):
    if eps == 1.0:
        return float(n)
    # Stable 1 - H for tiny eps; log1p keeps all the signal.
    one_minus_h = ((1 + eps) * math.log1p(eps) + (1 - eps) * math.log1p(-eps)) / (2 * math.log(2))
    return n * one_minus_h


def thermal_polarization(larmor_hz, temperature_k):
    return HBAR * 2 * math.pi * larmor_hz / (2 * KB * temperature_k)


# --- transfer bound by exhaustive search -------------------------------------

def thermal_diag(n):
    """Deviation populations of n equal spins: sum of +-1/2 per bit."""
    return [
        sum(0.5 if b == 0 else -0.5 for b in bits)
        for bits in itertools.product((0, 1), repeat=n)
    ]


def iz_diag(n, j):
    return [
        0.5 if bits[j] == 0 else -0.5
        for bits in itertools.product((0, 1), repeat=n)
    ]


def signed_sum(values, n, j):
    """Entries whose bit tuple has spin j up, minus those with it down."""
    return sum(
        v if bits[j] == 0 else -v
        for v, bits in zip(values, itertools.product((0, 1), repeat=n))
    )


def line_offsets(j_hz, j):
    """Readout line offsets of spin j, one per bit tuple of the other spins.

    Sums J_jk * m_k over the spectators k in spin order, m_k = +-1/2.
    """
    others = [k for k in range(len(j_hz)) if k != j]
    out = []
    for bits in itertools.product((0, 1), repeat=len(others)):
        freq = 0.0
        for k, b in zip(others, bits):
            freq += j_hz[j][k] * (0.5 if b == 0 else -0.5)
        out.append(freq)
    return out


def delay_angles(j_hz, seconds):
    """ZZ phase angle 2 pi t sum_{i<k} J_ik m_i m_k of every bit tuple."""
    n = len(j_hz)
    out = []
    for bits in itertools.product((0, 1), repeat=n):
        m = [0.5 if b == 0 else -0.5 for b in bits]
        angle = 0.0
        for i in range(n):
            for k in range(i + 1, n):
                if j_hz[i][k] != 0.0:
                    angle += 2.0 * math.pi * j_hz[i][k] * seconds * m[i] * m[k]
        out.append(angle)
    return out


def line_amplitudes(pops, n, j):
    """Population difference across spin j's transition, per spectator tuple.

    One entry per bit tuple of the other spins in spin order: the population
    with spin j up minus the one with it down.
    """
    by_bits = dict(zip(itertools.product((0, 1), repeat=n), pops))
    return [
        by_bits[rest[:j] + (0,) + rest[j:]] - by_bits[rest[:j] + (1,) + rest[j:]]
        for rest in itertools.product((0, 1), repeat=n - 1)
    ]


def csv_reference(freq_hz, amplitude):
    """A spectrum's CSV with one f-string per line, each float as its `repr`."""
    rows = zip(freq_hz.tolist(), amplitude.tolist())
    return "freq_hz,amplitude\n" + "".join([f"{f!r},{a!r}\n" for f, a in rows])


# --- the propagator, one Kronecker-embedded pulse at a time --------------------

def simulate_sequence_kron(seq):
    """Composite unitary of a pulse sequence as a bare 2**n x 2**n matrix.

    Reads only the sequence's JSON form (`to_json()`): the system's labels
    and couplings and each event. A delay multiplies by the phases of
    `delay_angles`; a pulse or frame shift is padded with identities by
    np.kron into a full matrix, O(d**3) per event.
    """
    payload = json.loads(seq.to_json())
    labels = payload["system"]["labels"]
    j_hz = payload["system"]["j_hz"]
    n = len(labels)
    phases = {}
    total = np.eye(1 << n, dtype=complex)
    for event in payload["events"]:
        if event["event"] == "delay":
            t = event["duration_s"]
            if t not in phases:
                phases[t] = np.exp(-1.0j * np.array(delay_angles(j_hz, t)))
            total = phases[t][:, None] * total
            continue
        theta = math.radians(event["angle_deg"])
        if event["event"] == "pulse":
            phi = math.radians(event["phase_deg"])
            c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
            gate = np.array(
                [[c, -1.0j * s * cmath.exp(-1.0j * phi)], [-1.0j * s * cmath.exp(1.0j * phi), c]]
            )
        else:
            gate = np.diag([cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)])
        spin = labels.index(event["spin"])
        left, right = np.eye(1 << spin), np.eye(1 << (n - 1 - spin))
        total = np.kron(left, np.kron(gate, right)) @ total
    return total


def max_projection_bruteforce(rho_diag, a_diag):
    a = np.asarray(a_diag, dtype=float)
    denom = float(a @ a)
    best = -math.inf
    for perm in itertools.permutations(rho_diag):
        val = float(np.dot(perm, a)) / denom
        if val > best:
            best = val
    return best


_PERM_TABLES: dict[int, np.ndarray] = {}


def max_projection_bruteforce_fast(rho_diag, a_diag):
    """Same exhaustive search, batched through one big index table."""
    rho = np.asarray(rho_diag, dtype=float)
    a = np.asarray(a_diag, dtype=float)
    size = rho.shape[0]
    table = _PERM_TABLES.get(size)
    if table is None:
        table = np.array(list(itertools.permutations(range(size))), dtype=np.intp)
        _PERM_TABLES[size] = table
    return float((rho[table] @ a).max() / (a @ a))


def thermal_projection_bound(n):
    """Best coefficient of spin 0's Iz in the n-spin thermal state.

    The thermal spectrum puts (n - 2k)/2 on comb(n, k) basis states; the
    target puts +1/2 on half of them and -1/2 on the rest. Sorted pairing
    gives +1/2 to the upper half of the spectrum, whose sum is minus the
    lower half's, so the overlap is the upper half's sum. The thermal
    state's own coefficient is 1, so this is also the enhancement.
    """
    upper_half = sum(Fraction(math.comb(n, k) * (n - 2 * k), 2) for k in range((n + 1) // 2))
    return float(upper_half / Fraction(2**n, 4))  # Tr(A^2) = 2**n / 4


# --- multi-round exact propagation -------------------------------------------

def replay_exact(n, eps0, triples):
    """Polarization of every spin after boosting the triples in order.

    Propagates the joint distribution over all 2**n bit tuples, starting
    from n independent spins at eps0.
    """
    dist = product_state([eps0] * n)
    for triple in triples:
        out = {}
        for bits, p in dist.items():
            nb = list(bits)
            for spin, val in zip(triple, boost_output(tuple(bits[s] for s in triple))):
                nb[spin] = val
            nb = tuple(nb)
            out[nb] = out.get(nb, 0) + p
        dist = out
    return [polarization_of(dist, j) for j in range(n)]


def two_round_cascade_n9(eps0):
    """Exact 512-state run: boost (0,1,2),(3,4,5),(6,7,8), then (0,3,6)."""
    return replay_exact(9, eps0, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6)])[0]


# --- the scheduler, one triple at a time ---------------------------------------

def plan_rounds_reference(n, eps0, target_eps, boost, recycle=False):
    """The greedy pool scheduler that slices three spins off at a time.

    `boost(value)` must return an object with `eps_a` and `eps_b` (the
    package's `boost_exact`), so pool keys are the same floats as the
    package's. Returns (rounds, boost gates, refocus gates, predicted best),
    each round a (triples, pool_eps) pair, or None when the target is out
    of reach. It copies the rest of a pool for every triple, O(n**2).
    """
    pools = {eps0: list(range(n))}
    rounds = []
    boost_gates = 0
    refocus_gates = 0

    def frontier():
        return max(pools) if pools else 0.0

    while frontier() < target_eps:
        triples = []
        pool_eps = []
        next_pools = {}
        for value in sorted(pools, reverse=True):
            spins = sorted(pools[value])
            report = boost(value) if len(spins) >= 3 else None
            while len(spins) >= 3:
                a, b, c = spins[:3]
                spins = spins[3:]
                triples.append((a, b, c))
                pool_eps.append(value)
                next_pools.setdefault(report.eps_a, []).append(a)
                if recycle:
                    next_pools.setdefault(report.eps_b, []).append(b)
            if spins:
                next_pools.setdefault(value, []).extend(spins)
        if not triples:
            return None
        rounds.append((triples, pool_eps))
        boost_gates += 5 * len(triples)
        refocus_gates += 2 * (n - 3 * len(triples))
        pools = next_pools

    return rounds, boost_gates, refocus_gates, frontier() if rounds else eps0


if __name__ == "__main__":
    print("closed forms proven:", prove_boost_closed_forms())
    print("boost_marginals(0.5):", boost_marginals(0.5))
    print("conditional_after_cnot(0.5):", conditional_after_cnot(0.5))
    print("H(0.5):", repr(entropy_binary(0.5)))
    print("H(0), H(1):", entropy_binary(0.0), entropy_binary(1.0))
    print("kmax(1e9, 3e-5):", repr(kmax(1e9, 3e-5)))
    print("kmax(5, 1.0):", kmax(5, 1.0))
    print("thermal_polarization(5e8, 300):", repr(thermal_polarization(5e8, 300.0)))
    print("2-spin a_max:", max_projection_bruteforce(thermal_diag(2), iz_diag(2, 0)))
    print("3-spin a_max:", max_projection_bruteforce(thermal_diag(3), iz_diag(3, 0)))
    print("two_round_cascade_n9(1e-3):", repr(two_round_cascade_n9(1e-3)))
    e1 = 1e-3 * (3 - 1e-6) / 2
    print("closed-form iterate:", repr(e1 * (3 - e1 * e1) / 2))
