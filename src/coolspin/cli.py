"""Command-line interface.

Five subcommands cover the library surface: `bound` (projection and
entropy limits), `boost` (the three-spin transformation), `cool`
(multi-round schedules), `compile` (pulse-sequence synthesis with
self-verification), and `spectrum` (readout prediction as CSV).

Every flag is listed once, in `COMMANDS`. An argv spelled as documented
(the subcommand, then each flag by its full name with its value as the
next token) is read straight from that table, without importing argparse.
Every other argv (`--help`, an abbreviation, `--flag=value`, a value
starting with "-", and every error) goes to the argparse parser that
`build_parser` builds from the same table, so help text, error text and
exit codes are argparse's; there a negative number in any float spelling
is a value. Either parse gives the handler and its flags as keyword
arguments (`--target-eps` is `target_eps`).

A `cmd_*` handler prints nothing: it returns its stdout and its artifact,
a (path, text) pair or None. `main` alone writes output, the artifact
first and then the report, so a command that exits non-zero, a failed
artifact write included, leaves stdout empty.

All numeric output is printed with 12 significant digits; state, plan and
sequence dumps are JSON at full float precision. Only a state file is read
back by a command (`spectrum --state`, reproducing its reports bit for
bit); plans and sequences reload through `CoolingPlan.from_dict` and
`PulseSequence.from_json`. Exit codes: 0 success, 2 bad input, 3
infeasible cooling target, 4 past the memory budget or an allocation that
ran out of memory.
"""
from __future__ import annotations

import functools
import json
import math
import sys
from typing import Callable

# No command calls max_projection, iz_operator, simulate_sequence, permutation_unitary
# or phase_pattern_equal: they stay imported because benchmark/tracing.py wraps them here by name.
from .bounds import entropy_bound_kmax, max_projection, thermal_bound
from .compiler import CircuitIR, compile_circuit, parse_circuit
from .cooling import boost_exact, plan_rounds, simulate_plan
from .errors import CapacityError, InfeasibleError
from .gates import PERMUTATION_KINDS, boost_circuit, circuit_permutation
from .propagator import permutation_unitary, phase_pattern_equal, simulate_sequence
from .propagator import check_verification, verify_permutation
from .pulses import DurationModel
from .spectra import readout
from .states import PopulationState, apply_permutation, iz_operator, memory_budget, polarization, read_text
from .states import thermal_state, write_in_place
from .system import SpinSystem, example_system

Output = tuple[str, tuple[str, str] | None]


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _system(path: str | None) -> SpinSystem:
    return example_system() if path is None else SpinSystem.load(path)


def _spin_count(text: str) -> int:
    """Parse --n: a whole number of spins, also accepted in float form (1e9)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 1 and value == int(value)):
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"must be a positive whole number of spins, got {text!r}")
    return int(value)


def cmd_bound(*, system, spin, eps0, n) -> Output:
    system = _system(system)
    label = system.labels[0 if spin is None else system.spin_index(spin)]
    result = thermal_bound(system.n)
    eps0 = system.epsilon0 if eps0 is None else eps0
    n = system.n if n is None else n
    return (
        f"spin: {label}\n"
        f"a_initial: {_fmt(result.a_initial)}\n"
        f"a_max: {_fmt(result.a_max)}\n"
        f"enhancement: {_fmt(result.enhancement)}\n"
        f"k_max(n={n}, eps0={_fmt(eps0)}): {_fmt(entropy_bound_kmax(n, eps0))}\n"
    ), None


def cmd_boost(*, system, eps0, out) -> Output:
    system = _system(system)
    if system.n != 3:
        raise ValueError(f"the boost acts on exactly 3 spins, system has {system.n}")
    eps0 = system.epsilon0 if eps0 is None else eps0
    report = boost_exact(eps0)
    pre = thermal_state(3)
    post = apply_permutation(pre, circuit_permutation(boost_circuit(), 3))
    values = [" ".join(f"{system.labels[j]}={_fmt(polarization(state, j))}" for j in range(3)) for state in (pre, post)]
    return (
        f"pre diag (deviation units): {' '.join(map(_fmt, pre.pops))}\n"
        f"post diag (deviation units): {' '.join(map(_fmt, post.pops))}\n"
        f"pre relative polarization (thermal = 1): {values[0]}\n"
        f"post relative polarization (thermal = 1): {values[1]}\n"
        f"exact marginals at eps0={_fmt(eps0)}:\n"
        f"  eps_a: {_fmt(report.eps_a)}\n"
        f"  eps_b: {_fmt(report.eps_b)}\n"
        f"  eps_c: {_fmt(report.eps_c)}\n"
        f"  enhancement: {_fmt(report.enhancement)}\n"
    ), None if out is None else (out, json.dumps(post.to_dict()))


def cmd_cool(*, n, eps0, target_eps, recycle, mode, out) -> Output:
    plan = plan_rounds(n, eps0, target_eps, recycle=recycle)
    artifact = None if out is None else (out, json.dumps(plan.to_dict()))
    result = simulate_plan(plan, mode=mode)
    spin, best = result.best()
    text = ""
    for i, rnd in enumerate(plan.rounds, start=1):
        # A round's block values are floats already: no `_fmt` cast per pool.
        pools = " ".join(dict.fromkeys(f"{value:.12g}" for value, _ in rnd.blocks))
        text += f"round {i}: {rnd.boosts} boosts, input pools: {pools}\n"
    text += (
        f"boost gates: {plan.boost_gate_count}\n"
        f"refocus gates: {plan.refocus_gate_count}\n"
        f"total gates: {plan.total_gate_count}\n"
        f"predicted best polarization: {_fmt(plan.predicted_best)}\n"
        f"simulated best ({mode}): spin {plan.label(spin)} at {_fmt(best)}\n"
    )
    if result.discrepancy is not None:
        text += f"exact vs approx max difference: {_fmt(result.discrepancy)}\n"
    return text, artifact


def cmd_compile(*, system, circuit, z_mode, bloch_siegert_deg, pulse90_s, out) -> Output:
    system = _system(system)
    if circuit is None:
        if system.n < 3:
            raise ValueError("the default boost circuit needs at least 3 spins")
        circuit = CircuitIR(n=system.n, gates=boost_circuit(0, 1, 2))
    else:
        circuit = parse_circuit(read_text(circuit), system)
    model = DurationModel(pulse90_s=pulse90_s)
    seq = compile_circuit(circuit, system, model, z_mode=z_mode, bloch_siegert_deg=bloch_siegert_deg)
    verdict = "SKIPPED (circuit contains rotation gates)"
    if all(g.kind in PERMUTATION_KINDS for g in circuit.gates):
        try:
            check_verification(system.n)  # before the permutation's 2**n indices
            verdict = "PASS" if verify_permutation(seq, circuit_permutation(circuit.gates, system.n)) else "FAIL"
        except CapacityError:
            verdict = "SKIPPED (system too large to verify)"
    return (
        f"events: {len(seq.events)}\n"
        f"pulses: {seq.pulse_count()}\n"
        f"total duration (s): {_fmt(seq.total_duration_s)}\n"
        f"coupling time (s): {_fmt(seq.coupling_duration_s())}\n"
        f"verification: {verdict}\n"
    ), None if out is None else (out, seq.to_json())


def cmd_spectrum(*, system, spin, state, boosted, out) -> Output:
    if state is not None and boosted:
        raise ValueError("--state and --boosted both name the state to read out; give one")
    system = _system(system)
    spin = 0 if spin is None else system.spin_index(spin)
    if state is not None:
        state = PopulationState.from_dict(json.loads(read_text(state)))
    elif boosted:
        if system.n != 3:
            raise ValueError("--boosted applies the 3-spin boost; use a 3-spin system")
        state = apply_permutation(thermal_state(3), circuit_permutation(boost_circuit(), 3))
    else:
        state = thermal_state(system.n)
    csv = readout(state, system, spin).to_csv()
    return (csv, None) if out is None else ("", (out, csv))


_SYSTEM = dict(help="spin-system JSON file (default: bundled molecule)")
_EPS0 = dict(type=float, help="initial polarization override")

# The one list of flags. Subcommand -> (handler, help, flag -> its
# `add_argument` keywords), in the order `--help` lists them.
COMMANDS = {
    "bound": (cmd_bound, "projection and entropy limits", {
        "--system": _SYSTEM,
        "--spin": dict(help="target spin label (default: first)"),
        "--eps0": _EPS0,
        "--n": dict(type=_spin_count, help="ensemble size for the entropy bound"),
    }),
    "boost": (cmd_boost, "one three-spin polarization boost", {
        "--system": _SYSTEM,
        "--eps0": _EPS0,
        "--out": dict(help="write the post-boost state as JSON"),
    }),
    "cool": (cmd_cool, "plan and simulate multi-round cooling", {
        "--n": dict(type=_spin_count, required=True, help="ensemble size"),
        "--eps0": dict(type=float, required=True, help="initial polarization"),
        "--target-eps": dict(type=float, required=True, help="goal polarization"),
        "--recycle": dict(action="store_true", help="reuse the second output spin"),
        "--mode": dict(choices=["exact", "approx", "both"], default="approx"),
        "--out": dict(help="write the plan as JSON"),
    }),
    "compile": (cmd_compile, "lower a circuit to a pulse sequence", {
        "--system": _SYSTEM,
        "--circuit": dict(help="gate list file (default: the boost circuit)"),
        "--z-mode": dict(choices=["virtual", "pulsed"], default="virtual"),
        "--bloch-siegert-deg": dict(type=float, default=0.0),
        "--pulse90-s": dict(type=float, default=2e-3),
        "--out": dict(help="write the sequence as JSON"),
    }),
    "spectrum": (cmd_spectrum, "predict one spin's readout multiplet", {
        "--system": _SYSTEM,
        "--spin": dict(help="observed spin label (default: first)"),
        "--state": dict(help="population-state JSON (default: thermal)"),
        "--boosted": dict(action="store_true", help="read out the boosted state"),
        "--out": dict(help="write CSV here instead of stdout"),
    }),
}


def _parse_table(argv: list[str]) -> tuple[Callable[..., Output], dict] | None:
    """The handler and keyword arguments of an argv spelled as `COMMANDS` lists it, else None.

    Any other argv, a value starting with "-" or failing its type or
    choices, and a missing required flag are left to `build_parser`.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, flags = COMMANDS[argv[0]]
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        keywords = flags.get(token)
        if keywords is None:
            return None
        if "action" in keywords:  # a store_true switch
            given[token] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except Exception:  # argparse reports the failed conversion
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[token] = value
    kwargs = {}
    for flag, keywords in flags.items():
        if flag in given:
            value = given[flag]
        elif keywords.get("required"):
            return None
        else:
            value = keywords.get("default", False if "action" in keywords else None)
        kwargs[flag[2:].replace("-", "_")] = value
    return handler, kwargs


@functools.cache
def build_parser():
    """The `argparse.ArgumentParser` of `COMMANDS`, built (and argparse imported) on first use."""
    import argparse
    import re

    parser = argparse.ArgumentParser(
        prog="coolspin",
        description="Polarization boosts, cooling schedules, pulse compilation, spectra.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        # A negative number in any float spelling (-1e-5, -inf, -nan) is a value
        # and not a flag: argparse before 3.13 reads only -1 and -.5 as numbers.
        p._negative_number_matcher = re.compile(r"-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|-(inf(inity)?|nan)$", re.I)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)
    return parser


def parse_args(argv: list[str] | None = None) -> tuple[Callable[..., Output], dict]:
    """`main`'s parse: the table for the documented spelling, argparse for every other argv."""
    argv = sys.argv[1:] if argv is None else argv
    if (parsed := _parse_table(argv)) is not None:
        return parsed
    kwargs = vars(build_parser().parse_args(argv))
    del kwargs["subcommand"]
    return kwargs.pop("handler"), kwargs


def main(argv: list[str] | None = None) -> int:
    """Run one command. The only writer of output: a command that exits non-zero prints nothing on stdout."""
    try:
        handler, kwargs = parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad input and 0 after --help
        return exc.code
    try:
        memory_budget()  # a malformed COOLSPIN_MAX_N is bad input to every command
        text, artifact = handler(**kwargs)
        if artifact is not None:
            write_in_place(*artifact)
            text += f"wrote {artifact[0]}\n"
        sys.stdout.write(text)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (CapacityError, MemoryError) as exc:
        print(f"capacity: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # a JSON syntax error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
