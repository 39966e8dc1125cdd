"""The benchmark's four workloads, as cycles of CLI commands with checks.

A workload is a list of distinct commands (one cycle). Each command carries
the argv a user would type after `coolspin` and a check of its output
against `checks`. Sizes are fixed; the seed picks eps0, the couplings, the
random circuits, the state permutations and, in `run.py`, the command order.
Every input file is written into the run's scratch directory.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

GATE_ARITY = {"NOT": 1, "CNOT": 2, "TOFFOLI": 3, "FREDKIN": 3}
# Fixed gate mix of the random circuits, so the seed moves operands and
# order but not how much work a circuit is.
CIRCUIT_GATES = ["NOT"] * 3 + ["CNOT"] * 3 + ["TOFFOLI"] * 2 + ["FREDKIN"] * 2


@dataclass
class Command:
    """One CLI invocation and the check its stdout must pass."""

    argv: list[str]
    check: Callable[[str], None]

    @property
    def name(self) -> str:
        return " ".join(self.argv)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _floor_log3(n: int) -> int:
    k = 0
    while 3 ** (k + 1) <= n:
        k += 1
    return k


def _cool(rng: random.Random, n: int, recycle: bool, mode: str, out: Path | None) -> Command:
    eps0 = _log_uniform(rng, 1e-5, 1e-3)
    target = 0.99 * 1.5 ** _floor_log3(n) * eps0
    argv = ["cool", "--n", str(n), "--eps0", repr(eps0), "--target-eps", repr(target), "--mode", mode]
    argv += ["--recycle"] * recycle
    if out is not None:
        argv += ["--out", str(out)]
    check = partial(
        checks.check_cool, n=n, eps0=eps0, target=target, mode=mode,
        plan_path=None if out is None else str(out),
    )
    return Command(argv, check)


# Cycles take 2 s or less, so that a run of 20 s gives each command ten
# samples or more: a command's median normalized latency is steady across
# runs only over that many. That leaves out the costliest sizes: cool
# --recycle at 3^9 (2.0 s), cool --mode both at n = 20 and 21 (0.6-2.1 s)
# and the circuits at n = 7 and 8 (0.25-1.6 s).


def cool_approx(rng: random.Random, tmp: Path, root: Path, cli_main: Callable) -> list[Command]:
    sizes = [(3**7, False), (3**7, True), (3**8, False), (3**8, True), (3**9, False)]
    return [_cool(rng, n, recycle, "approx", None) for n, recycle in sizes]


def cool_exact(rng: random.Random, tmp: Path, root: Path, cli_main: Callable) -> list[Command]:
    return [
        _cool(rng, n, recycle, "both", tmp / f"plan-{n}-{int(recycle)}.json")
        for n in (15, 17, 19)
        for recycle in (False, True)
    ]


def write_system(rng: random.Random, n: int, path: Path) -> np.ndarray:
    """A fully coupled n-spin system with |J| in [20, 150] Hz of random sign."""
    j_hz = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            j_hz[i, k] = j_hz[k, i] = rng.uniform(20.0, 150.0) * rng.choice((-1.0, 1.0))
    system = {
        "labels": [f"q{i}" for i in range(n)],
        "j_hz": j_hz.tolist(),
        "shift_ppm": [0.0] * n,
        "epsilon0": _log_uniform(rng, 1e-5, 1e-3),
    }
    path.write_text(json.dumps(system))
    return j_hz


def write_circuit(rng: random.Random, n: int, path: Path) -> None:
    gates = list(CIRCUIT_GATES)
    rng.shuffle(gates)
    lines = [" ".join([kind, *(f"q{s}" for s in rng.sample(range(n), GATE_ARITY[kind]))]) for kind in gates]
    path.write_text("\n".join(lines) + "\n")


def compile_verify(rng: random.Random, tmp: Path, root: Path, cli_main: Callable) -> list[Command]:
    commands = []
    for n in range(3, 9):
        system, circuit = tmp / f"sys-{n}.json", tmp / f"circuit-{n}.txt"
        write_system(rng, n, system)
        write_circuit(rng, n, circuit)
        for z_mode in ("virtual", "pulsed"):
            base = ["compile", "--system", str(system), "--z-mode", z_mode]
            commands.append(Command(base, checks.check_compile))
            if n < 7:
                commands.append(Command(base + ["--circuit", str(circuit)], checks.check_compile))
    return commands


# Each short command appears this many times per cycle, so that the 6 x 8
# short commands outnumber the 6 large spectra and set the median.
SHORT_REPEATS = 8


def _spectrum(argv: list[str], pops: np.ndarray, j_hz: np.ndarray, out: Path | None) -> Command:
    def check(stdout: str) -> None:
        if out is None:
            checks.check_spectrum_csv(stdout, pops=pops, j_hz=j_hz)
        else:
            checks.check_wrote(stdout, str(out))
            checks.check_spectrum_csv(out.read_text(), pops=pops, j_hz=j_hz)

    return Command(argv + ([] if out is None else ["--out", str(out)]), check)


def readout_mix(rng: random.Random, tmp: Path, root: Path, cli_main: Callable) -> list[Command]:
    bundled = json.loads((root / "src" / "coolspin" / "data" / "c2f3br.json").read_text())
    bundled_j = np.asarray(bundled["j_hz"], dtype=float)
    nprng = np.random.default_rng(rng.getrandbits(64))

    sys8 = tmp / "sys-8.json"
    write_system(rng, 8, sys8)
    sys8_eps0 = json.loads(sys8.read_text())["epsilon0"]
    boost_state = tmp / "boost-state.json"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(["boost", "--out", str(boost_state)])
    checks.require(rc == 0 and boost_state.is_file(), "could not produce the boost artifact")
    boosted = checks.boosted_pops3()

    commands = []
    for i in range(SHORT_REPEATS):
        boost_eps0 = _log_uniform(rng, 1e-5, 1e-3)
        boost_out = tmp / f"boost-{i}.json"
        commands += [
            Command(["bound"], partial(checks.check_bound, label="a", n=3, eps0=bundled["epsilon0"], n_kmax=3)),
            Command(["bound", "--system", str(sys8)], partial(checks.check_bound, label="q0", n=8, eps0=sys8_eps0, n_kmax=8)),
            Command(["bound", "--n", "1e9", "--eps0", "3e-5"], partial(checks.check_bound, label="a", n=3, eps0=3e-5, n_kmax=10**9)),
            Command(
                ["boost", "--eps0", repr(boost_eps0), "--out", str(boost_out)],
                partial(checks.check_boost, eps0=boost_eps0, labels=bundled["labels"], state_path=str(boost_out)),
            ),
            _spectrum(["spectrum", "--boosted"], boosted, bundled_j, None),
            _spectrum(["spectrum", "--state", str(boost_state)], boosted, bundled_j, None),
        ]

    for n in (12, 16, 18):
        system = tmp / f"sys-{n}.json"
        j_hz = write_system(rng, n, system)
        thermal = checks.thermal_pops(n)
        commands.append(_spectrum(["spectrum", "--system", str(system)], thermal, j_hz, None))
        # A permuted thermal state, read from JSON, with its spectrum written as CSV.
        pops = checks.permuted(thermal, nprng.permutation(1 << n))
        state = tmp / f"state-{n}.json"
        state.write_text(json.dumps({"n": n, "pops": pops.tolist()}))
        argv = ["spectrum", "--system", str(system), "--state", str(state)]
        commands.append(_spectrum(argv, pops, j_hz, tmp / f"spectrum-{n}.csv"))
    return commands


WORKLOADS = {
    "cool-approx": cool_approx,
    "cool-exact": cool_exact,
    "compile-verify": compile_verify,
    "readout-mix": readout_mix,
}


def build(name: str, seed: int, tmp: Path, root: Path, cli_main: Callable) -> tuple[list[Command], random.Random]:
    """The workload's commands, plus the generator that orders them per cycle."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, tmp, root, cli_main), rng
