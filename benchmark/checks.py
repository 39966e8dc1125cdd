"""Reference values that the benchmark checks each command's output against.

Nothing here imports coolspin. Basis states follow the package's documented
convention (spin 0 is the most significant bit, bit 0 means spin up), and
every expected number comes from bit arithmetic on basis indices or from a
closed form: the boost marginals, the k-fold boost iterate, the entropy
deficit as a power series, and the projection bound of a thermal state from
its binomial spectrum.

Numbers on stdout are printed with 12 significant digits, so a printed value
is compared against its reference with the printing resolution added to the
tolerance (`print_tol`).
"""
from __future__ import annotations

import json
import math
import re

import numpy as np


class CheckError(Exception):
    """A command's output disagrees with the benchmark's reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def print_tol(x: float) -> float:
    """Half a unit in the 12th significant digit of x."""
    if x == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 11)


def require_close(what: str, got: float, want: float, *, rel: float = 1e-12, abs_: float = 0.0) -> None:
    tol = rel * abs(want) + abs_ + print_tol(want)
    require(abs(got - want) <= tol, f"{what}: got {got!r}, expected {want!r} (tolerance {tol:.3g})")


def field(text: str, pattern: str) -> str:
    """The first capture group of `pattern` matched against a line of text."""
    match = re.search(pattern, text, re.MULTILINE)
    require(match is not None, f"output has no line matching {pattern!r}")
    return match.group(1)


def number(text: str, label: str) -> float:
    return float(field(text, rf"^\s*{re.escape(label)}: (\S+)$"))


# The package forms each boost marginal as a signed sum of eight O(1)
# probabilities, so a marginal carries an absolute error of a few 1e-16
# (2.4e-16 seen) whatever its size (eps_c = -eps**2 is 1e-10 at eps0 = 1e-5), and
# an iterate adds that per round, amplified 1.5x by each later round: up to
# 8e-15 (1.5e-11 of the value) was seen for eps0 in [1e-5, 1e-3] and k <= 9.
# A pure 1e-12 relative tolerance would fail near eps0 = 1e-5.
MARGINAL_ABS_TOL = 1e-15
ITERATE_ABS_TOL = 1e-13


# --- closed forms -------------------------------------------------------------

def boost_marginals(eps: float) -> tuple[float, float, float]:
    """Polarizations of roles a, b, c after one boost at equal polarization eps."""
    return eps * (3.0 - eps * eps) / 2.0, eps * (1.0 + eps * eps) / 2.0, -eps * eps


def boost_iterate(eps: float, k: int) -> float:
    for _ in range(k):
        eps = eps * (3.0 - eps * eps) / 2.0
    return eps


def rounds_to_target(eps0: float, target: float) -> int:
    k = 0
    while boost_iterate(eps0, k) < target:
        k += 1
    return k


def entropy_deficit(eps: float) -> float:
    """1 - H((1+eps)/2) in bits, from its series sum eps^2m / (2 ln2 m (2m-1))."""
    total, term_pow, m = 0.0, eps * eps, 1
    while True:
        term = term_pow / (m * (2 * m - 1))
        total += term
        if term < 1e-18 * total:
            return total / (2.0 * math.log(2.0))
        term_pow *= eps * eps
        m += 1


# --- basis-index arithmetic ---------------------------------------------------

def spin_bits(n: int, spin: int) -> np.ndarray:
    """0/1 value of one spin's bit for every basis index."""
    return (np.arange(1 << n) >> (n - 1 - spin)) & 1


def thermal_pops(n: int) -> np.ndarray:
    """Deviation populations of the thermal state: +1/2 per up spin, -1/2 per down."""
    return sum(0.5 - spin_bits(n, s) for s in range(n)).astype(float)


def boost_perm3() -> np.ndarray:
    """Basis map i -> perm[i] of the boost on (a, b, c): CNOT(b->c), NOT(c), then
    swap a and b when c is set."""
    perm = np.empty(8, dtype=int)
    for i in range(8):
        a, b, c = (i >> 2) & 1, (i >> 1) & 1, i & 1
        c = (c ^ b) ^ 1
        if c:
            a, b = b, a
        perm[i] = (a << 2) | (b << 1) | c
    return perm


def permuted(pops: np.ndarray, perm: np.ndarray) -> np.ndarray:
    out = np.empty_like(pops)
    out[perm] = pops
    return out


def boosted_pops3() -> np.ndarray:
    return permuted(thermal_pops(3), boost_perm3())


def relative_polarization(pops: np.ndarray, n: int, spin: int) -> float:
    return 2.0 / (1 << n) * float(np.where(spin_bits(n, spin), -1.0, 1.0) @ pops)


def thermal_projection_bound(n: int) -> tuple[float, float]:
    """(a_initial, a_max) of one spin's Iz in the n-spin thermal state."""
    pops = thermal_pops(n)
    target = 0.5 - spin_bits(n, 0)
    denom = float(target @ target)
    a_initial = float(pops @ target) / denom
    a_max = float(np.sort(pops) @ np.sort(target)) / denom
    return a_initial, a_max


def spectrum_reference(pops: np.ndarray, j_hz: np.ndarray, spin: int) -> tuple[np.ndarray, np.ndarray]:
    """Line frequencies and amplitudes of one spin, highest frequency first."""
    n = j_hz.shape[0]
    pos = n - 1 - spin
    spectators = np.arange(1 << (n - 1))
    idx0 = ((spectators >> pos) << (pos + 1)) | (spectators & ((1 << pos) - 1))
    idx1 = idx0 | (1 << pos)
    freq = np.zeros(idx0.shape[0])
    for k in range(n):
        if k != spin:
            freq += j_hz[spin, k] * (0.5 - ((idx0 >> (n - 1 - k)) & 1))
    order = np.argsort(-freq, kind="stable")
    return freq[order], (pops[idx0] - pops[idx1])[order]


# --- per-command checks -------------------------------------------------------

def check_bound(out: str, *, label: str, n: int, eps0: float, n_kmax: int) -> None:
    require(field(out, r"^spin: (\S+)$") == label, f"expected spin {label}")
    a_initial, a_max = thermal_projection_bound(n)
    require_close("a_initial", number(out, "a_initial"), a_initial)
    require_close("a_max", number(out, "a_max"), a_max)
    require_close("enhancement", number(out, "enhancement"), a_max / a_initial)
    match = re.search(r"^k_max\(n=(\d+), eps0=(\S+)\): (\S+)$", out, re.MULTILINE)
    require(match is not None, "output has no k_max line")
    require(int(match.group(1)) == n_kmax, f"k_max reported for n={match.group(1)}, expected {n_kmax}")
    require_close("k_max eps0", float(match.group(2)), eps0)
    require_close("k_max", float(match.group(3)), n_kmax * entropy_deficit(eps0), rel=1e-10)


def _diag(out: str, label: str) -> np.ndarray:
    return np.array(field(out, rf"^{label} diag \(deviation units\): (.+)$").split(), dtype=float)


def check_boost(out: str, *, eps0: float, labels: list[str], state_path: str) -> None:
    pre, post = thermal_pops(3), boosted_pops3()
    require(np.array_equal(_diag(out, "pre"), pre), "pre-boost populations differ from thermal")
    require(np.array_equal(_diag(out, "post"), post), "post-boost populations differ from the boost map")
    for name, pops in (("pre", pre), ("post", post)):
        want = " ".join(f"{labels[j]}={relative_polarization(pops, 3, j):.12g}" for j in range(3))
        got = field(out, rf"^{name} relative polarization \(thermal = 1\): (.+)$")
        require(got == want, f"{name} relative polarization: got {got!r}, expected {want!r}")
    for role, want in zip("abc", boost_marginals(eps0)):
        require_close(f"eps_{role}", number(out, f"eps_{role}"), want, abs_=MARGINAL_ABS_TOL)
    enhancement = (3.0 - eps0 * eps0) / 2.0
    require_close("enhancement", number(out, "enhancement"), enhancement, abs_=MARGINAL_ABS_TOL / eps0)
    check_wrote(out, state_path)
    with open(state_path, encoding="utf-8") as fh:
        state = json.load(fh)
    require(state.get("n") == 3, "boost artifact must describe 3 spins")
    require(np.array_equal(np.asarray(state["pops"], dtype=float), post), "boost artifact populations differ")


def check_wrote(out: str, path: str) -> None:
    require(out.splitlines()[-1:] == [f"wrote {path}"], f"expected a final 'wrote {path}' line")


def check_cool(
    out: str,
    *,
    n: int,
    eps0: float,
    target: float,
    mode: str,
    plan_path: str | None = None,
) -> None:
    k = rounds_to_target(eps0, target)
    boosts = [int(b) for b in re.findall(r"^round \d+: (\d+) boosts", out, re.MULTILINE)]
    require(len(boosts) == k, f"expected {k} rounds, got {len(boosts)}")
    boost_gates = int(number(out, "boost gates"))
    refocus_gates = int(number(out, "refocus gates"))
    require(boost_gates == 5 * sum(boosts), f"boost gates {boost_gates} != 5 x {sum(boosts)} triples")
    require(refocus_gates == sum(2 * (n - 3 * b) for b in boosts), "refocus gate ledger is inconsistent")
    require(int(number(out, "total gates")) == boost_gates + refocus_gates, "total gates != boost + refocus")
    best_ref = boost_iterate(eps0, k)
    require_close("predicted best", number(out, "predicted best polarization"), best_ref, abs_=ITERATE_ABS_TOL)
    best = float(field(out, rf"^simulated best \({mode}\): spin \S+ at (\S+)$"))
    require(best >= target, f"best polarization {best!r} misses the target {target!r}")
    if mode == "approx":
        require_close("simulated best", best, best_ref, abs_=ITERATE_ABS_TOL)
    else:
        # The exact replay sums 2**n probabilities, so it agrees with the
        # closed form to an absolute 1e-12, not to 1e-12 of the value.
        require_close("simulated best", best, best_ref, rel=0.0, abs_=1e-12)
        discrepancy = number(out, "exact vs approx max difference")
        require(discrepancy <= 1e-12, f"exact vs approx difference {discrepancy!r} exceeds 1e-12")
    if plan_path is not None:
        check_wrote(out, plan_path)
        with open(plan_path, encoding="utf-8") as fh:
            plan = json.load(fh)
        check_plan(plan, n=n, boosts=boosts, boost_gates=boost_gates, refocus_gates=refocus_gates, best=best_ref)


def check_plan(plan: dict, *, n: int, boosts: list[int], boost_gates: int, refocus_gates: int, best: float) -> None:
    require(plan["n"] == n and len(plan["labels"]) == n, "plan artifact has the wrong spin count")
    labels = set(plan["labels"])
    require([len(r["triples"]) for r in plan["rounds"]] == boosts, "plan artifact rounds differ from the report")
    for rnd in plan["rounds"]:
        used = [lab for triple in rnd["triples"] for lab in triple]
        require(all(len(t) == 3 for t in rnd["triples"]), "every plan triple must name three spins")
        require(len(set(used)) == len(used) and set(used) <= labels, "plan triples overlap or name unknown spins")
        require(len(rnd["pool_eps"]) == len(rnd["triples"]), "one pool value per triple")
    require(plan["boost_gate_count"] == boost_gates, "plan artifact boost gate count differs")
    require(plan["refocus_gate_count"] == refocus_gates, "plan artifact refocus gate count differs")
    require(plan["total_gate_count"] == boost_gates + refocus_gates, "plan artifact total gate count differs")
    require_close("plan predicted best", plan["predicted_best"], best, abs_=ITERATE_ABS_TOL)


def check_compile(out: str) -> None:
    events = int(number(out, "events"))
    pulses = int(number(out, "pulses"))
    require(0 < pulses <= events, f"implausible sequence: {pulses} pulses in {events} events")
    require(number(out, "total duration (s)") > 0.0, "sequence has no duration")
    verdict = field(out, r"^verification: (.+)$")
    require(verdict == "PASS", f"verification verdict is {verdict!r}")


def parse_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    header, _, body = text.partition("\n")
    require(header == "freq_hz,amplitude", f"unexpected CSV header {header!r}")
    values = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float)
    require(values.size % 2 == 0, "CSV rows must have two columns")
    return values[0::2], values[1::2]


def check_spectrum_csv(text: str, *, pops: np.ndarray, j_hz: np.ndarray, spin: int = 0) -> None:
    freq, amp = parse_csv(text)
    want_freq, want_amp = spectrum_reference(pops, j_hz, spin)
    require(freq.shape == want_freq.shape, f"expected {want_freq.size} lines, got {freq.size}")
    scale = max(1.0, float(np.abs(want_freq).max()))
    require(np.abs(freq - want_freq).max() <= 1e-9 * scale, "line frequencies differ from the couplings")
    # Lines of (nearly) equal frequency may come in either order, so amplitudes
    # are compared as sorted multisets within each group of tied frequencies.
    group = np.concatenate([[0], np.cumsum(np.diff(want_freq) < -1e-9 * scale)])
    got_sorted = amp[np.lexsort((amp, group))]
    want_sorted = want_amp[np.lexsort((want_amp, group))]
    worst = float(np.abs(got_sorted - want_sorted).max())
    require(worst <= 1e-12 * max(1.0, float(np.abs(want_amp).max())), f"line amplitudes differ by {worst:.3g}")
