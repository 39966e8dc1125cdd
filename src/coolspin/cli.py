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
exit codes are argparse's.

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
import sys
import math
from types import SimpleNamespace
from typing import TYPE_CHECKING

# No command calls max_projection or iz_operator; both stay imported because
# benchmark/tracing.py wraps them here by name.
from .bounds import entropy_bound_kmax, max_projection, thermal_bound
from .compiler import CircuitIR, compile_circuit, parse_circuit
from .cooling import boost_exact, plan_rounds, simulate_plan
from .errors import CapacityError, InfeasibleError
from .gates import PERMUTATION_KINDS, boost_circuit, circuit_permutation
# The dense-oracle names stay imported: benchmark/tracing.py wraps them here by name.
from .propagator import permutation_unitary, phase_pattern_equal, simulate_sequence
from .propagator import check_verification, verify_permutation
from .pulses import DurationModel
from .spectra import readout
from .states import PopulationState, apply_permutation, iz_operator, memory_budget, polarization, read_text
from .states import thermal_state, write_in_place
from .system import SpinSystem, example_system

if TYPE_CHECKING:
    import argparse

    Args = argparse.Namespace | SimpleNamespace


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _write(path: str, text: str) -> None:
    write_in_place(path, text)
    print(f"wrote {path}")


def _system(args: Args) -> SpinSystem:
    return example_system() if args.system is None else SpinSystem.load(args.system)


def _spin(args: Args, system: SpinSystem) -> int:
    return 0 if args.spin is None else system.spin_index(args.spin)


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


def cmd_bound(args: Args) -> int:
    system = _system(args)
    spin = _spin(args, system)
    result = thermal_bound(system.n)
    eps0 = system.epsilon0 if args.eps0 is None else args.eps0
    n_for_kmax = system.n if args.n is None else args.n
    kmax = entropy_bound_kmax(n_for_kmax, eps0)
    print(f"spin: {system.labels[spin]}")
    print(f"a_initial: {_fmt(result.a_initial)}")
    print(f"a_max: {_fmt(result.a_max)}")
    print(f"enhancement: {_fmt(result.enhancement)}")
    print(f"k_max(n={n_for_kmax}, eps0={_fmt(eps0)}): {_fmt(kmax)}")
    return 0


def cmd_boost(args: Args) -> int:
    system = _system(args)
    if system.n != 3:
        raise ValueError(f"the boost acts on exactly 3 spins, system has {system.n}")
    eps0 = system.epsilon0 if args.eps0 is None else args.eps0
    report = boost_exact(eps0)
    pre = thermal_state(3)
    post = apply_permutation(pre, circuit_permutation(boost_circuit(), 3))
    print("pre diag (deviation units): " + " ".join(_fmt(p) for p in pre.pops))
    print("post diag (deviation units): " + " ".join(_fmt(p) for p in post.pops))
    for state, name in ((pre, "pre"), (post, "post")):
        values = " ".join(
            f"{system.labels[j]}={_fmt(polarization(state, j))}" for j in range(3)
        )
        print(f"{name} relative polarization (thermal = 1): {values}")
    print(f"exact marginals at eps0={_fmt(eps0)}:")
    print(f"  eps_a: {_fmt(report.eps_a)}")
    print(f"  eps_b: {_fmt(report.eps_b)}")
    print(f"  eps_c: {_fmt(report.eps_c)}")
    print(f"  enhancement: {_fmt(report.enhancement)}")
    if args.out is not None:
        _write(args.out, json.dumps(post.to_dict()))
    return 0


def cmd_cool(args: Args) -> int:
    plan = plan_rounds(args.n, args.eps0, args.target_eps, recycle=args.recycle)
    # Everything that can refuse runs before anything is printed: the plan file
    # names every triple, and a replay may exceed its budget.
    text = None if args.out is None else json.dumps(plan.to_dict())
    result = simulate_plan(plan, mode=args.mode)
    spin, best = result.best()
    for i, rnd in enumerate(plan.rounds, start=1):
        # A round's block values are floats already: no `_fmt` cast per pool.
        pools = " ".join(dict.fromkeys(f"{value:.12g}" for value, _ in rnd.blocks))
        print(f"round {i}: {rnd.boosts} boosts, input pools: {pools}")
    print(f"boost gates: {plan.boost_gate_count}")
    print(f"refocus gates: {plan.refocus_gate_count}")
    print(f"total gates: {plan.total_gate_count}")
    print(f"predicted best polarization: {_fmt(plan.predicted_best)}")
    print(f"simulated best ({args.mode}): spin {plan.label(spin)} at {_fmt(best)}")
    if result.discrepancy is not None:
        print(f"exact vs approx max difference: {_fmt(result.discrepancy)}")
    if text is not None:
        _write(args.out, text)
    return 0


def cmd_compile(args: Args) -> int:
    system = _system(args)
    if args.circuit is None:
        if system.n < 3:
            raise ValueError("the default boost circuit needs at least 3 spins")
        circuit = CircuitIR(n=system.n, gates=boost_circuit(0, 1, 2))
    else:
        circuit = parse_circuit(read_text(args.circuit), system)
    model = DurationModel(pulse90_s=args.pulse90_s)
    seq = compile_circuit(
        circuit,
        system,
        model,
        z_mode=args.z_mode,
        bloch_siegert_deg=args.bloch_siegert_deg,
    )
    print(f"events: {len(seq.events)}")
    print(f"pulses: {seq.pulse_count()}")
    print(f"total duration (s): {_fmt(seq.total_duration_s)}")
    print(f"coupling time (s): {_fmt(seq.coupling_duration_s())}")
    verdict = "SKIPPED (circuit contains rotation gates)"
    if all(g.kind in PERMUTATION_KINDS for g in circuit.gates):
        try:
            check_verification(system.n)  # before the permutation's 2**n indices
            verdict = "PASS" if verify_permutation(seq, circuit_permutation(circuit.gates, system.n)) else "FAIL"
        except CapacityError:
            verdict = "SKIPPED (system too large to verify)"
    print(f"verification: {verdict}")
    if args.out is not None:
        _write(args.out, seq.to_json())
    return 0


def cmd_spectrum(args: Args) -> int:
    if args.state is not None and args.boosted:
        raise ValueError("--state and --boosted both name the state to read out; give one")
    system = _system(args)
    spin = _spin(args, system)
    if args.state is not None:
        state = PopulationState.from_dict(json.loads(read_text(args.state)))
    elif args.boosted:
        if system.n != 3:
            raise ValueError("--boosted applies the 3-spin boost; use a 3-spin system")
        state = apply_permutation(thermal_state(3), circuit_permutation(boost_circuit(), 3))
    else:
        state = thermal_state(system.n)
    csv = readout(state, system, spin).to_csv()
    if args.out is None:
        sys.stdout.write(csv)
    else:
        _write(args.out, csv)
    return 0


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


def _parse_table(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would give an argv spelled as `COMMANDS` lists it, else None.

    The documented spelling is the subcommand, then flags by their full
    names, each value the next token and not starting with "-". Any other
    argv, and any value that fails its type or choices or a missing
    required flag, is left to `build_parser`, so help, errors and the other
    spellings stay argparse's own.
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
    args = {"subcommand": argv[0]}
    for flag, keywords in flags.items():
        if flag in given:
            value = given[flag]
        elif keywords.get("required"):
            return None
        else:
            value = keywords.get("default", False if "action" in keywords else None)
        args[flag[2:].replace("-", "_")] = value
    args["handler"] = handler
    return SimpleNamespace(**args)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="coolspin",
        description="Polarization boosts, cooling schedules, pulse compilation, spectra.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)
    return parser


def parse_args(argv: list[str] | None = None) -> Args:
    """`main`'s parse: the table for the documented spelling, argparse for every other argv."""
    argv = sys.argv[1:] if argv is None else argv
    return _parse_table(argv) or build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad input and 0 after --help
        return exc.code
    try:
        memory_budget()  # a malformed COOLSPIN_MAX_N is bad input to every command
        return args.handler(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (CapacityError, MemoryError) as exc:
        print(f"capacity: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # a JSON syntax error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
