"""Command-line interface.

Five subcommands cover the library surface: `bound` (projection and
entropy limits), `boost` (the three-spin transformation), `cool`
(multi-round schedules), `compile` (pulse-sequence synthesis with
self-verification), and `spectrum` (readout prediction as CSV).

All numeric output is printed with 12 significant digits; state, plan and
sequence dumps are JSON at full float precision. Only a state file is read
back by a command (`spectrum --state`, reproducing its reports bit for
bit); plans and sequences reload through `CoolingPlan.from_dict` and
`PulseSequence.from_json`. Exit codes: 0 success, 2 bad input, 3
infeasible cooling target, 4 capacity guard or an allocation that ran out
of memory.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import math
from pathlib import Path

# No command calls max_projection or iz_operator; both stay imported because
# benchmark/tracing.py wraps them here by name.
from .bounds import entropy_bound_kmax, max_projection, thermal_bound
from .compiler import CircuitIR, compile_circuit, parse_circuit
from .cooling import boost_exact, plan_rounds, simulate_plan
from .errors import CapacityError, InfeasibleError
from .gates import PERMUTATION_KINDS, boost_circuit, circuit_permutation
# The dense-oracle names stay imported: benchmark/tracing.py wraps them here by name.
from .propagator import permutation_unitary, phase_pattern_equal, simulate_sequence
from .propagator import verify_permutation
from .pulses import DurationModel
from .spectra import readout
from .states import (
    MAX_POPULATION_SPINS,
    MAX_VERIFY_SPINS,
    PopulationState,
    apply_permutation,
    capacity_limit,
    iz_operator,
    polarization,
    thermal_state,
    write_in_place,
)
from .system import SpinSystem, example_system


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _write(path: str, text: str) -> None:
    write_in_place(path, text)
    print(f"wrote {path}")


def _system(args: argparse.Namespace) -> SpinSystem:
    return example_system() if args.system is None else SpinSystem.load(args.system)


def _spin(args: argparse.Namespace, system: SpinSystem) -> int:
    return 0 if args.spin is None else system.spin_index(args.spin)


def _spin_count(text: str) -> int:
    """Parse --n: a whole number of spins, also accepted in float form (1e9)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 1 and value == int(value)):
        raise argparse.ArgumentTypeError(f"must be a positive whole number of spins, got {text!r}")
    return int(value)


def cmd_bound(args: argparse.Namespace) -> int:
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


def cmd_boost(args: argparse.Namespace) -> int:
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


def cmd_cool(args: argparse.Namespace) -> int:
    plan = plan_rounds(args.n, args.eps0, args.target_eps, recycle=args.recycle)
    # The plan file names every triple: a plan too large to build is refused
    # before anything is printed.
    text = None if args.out is None else json.dumps(plan.to_dict())
    for i, rnd in enumerate(plan.rounds, start=1):
        # A round's block values are floats already: no `_fmt` cast per pool.
        pools = " ".join(dict.fromkeys(f"{value:.12g}" for value, _ in rnd.blocks))
        print(f"round {i}: {rnd.boosts} boosts, input pools: {pools}")
    print(f"boost gates: {plan.boost_gate_count}")
    print(f"refocus gates: {plan.refocus_gate_count}")
    print(f"total gates: {plan.total_gate_count}")
    print(f"predicted best polarization: {_fmt(plan.predicted_best)}")
    result = simulate_plan(plan, mode=args.mode)
    spin, value = result.best()
    print(f"simulated best ({args.mode}): spin {plan.label(spin)} at {_fmt(value)}")
    if result.discrepancy is not None:
        print(f"exact vs approx max difference: {_fmt(result.discrepancy)}")
    if text is not None:
        _write(args.out, text)
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    system = _system(args)
    if args.circuit is None:
        if system.n < 3:
            raise ValueError("the default boost circuit needs at least 3 spins")
        circuit = CircuitIR(n=system.n, gates=boost_circuit(0, 1, 2))
    else:
        circuit = parse_circuit(Path(args.circuit).read_text(), system)
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
    permutation_circuit = all(g.kind in PERMUTATION_KINDS for g in circuit.gates)
    if not permutation_circuit:
        print("verification: SKIPPED (circuit contains rotation gates)")
    elif system.n > capacity_limit(MAX_VERIFY_SPINS):
        print("verification: SKIPPED (system too large to verify)")
    else:
        verdict = verify_permutation(seq, circuit_permutation(circuit.gates, system.n))
        print(f"verification: {'PASS' if verdict else 'FAIL'}")
    if args.out is not None:
        _write(args.out, seq.to_json())
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    system = _system(args)
    spin = _spin(args, system)
    if args.state is not None:
        state = PopulationState.from_dict(json.loads(Path(args.state).read_text()))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coolspin",
        description="Polarization boosts, cooling schedules, pulse compilation, spectra.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_system(p):
        p.add_argument("--system", help="spin-system JSON file (default: bundled molecule)")

    p = sub.add_parser("bound", help="projection and entropy limits")
    add_system(p)
    p.add_argument("--spin", help="target spin label (default: first)")
    p.add_argument("--eps0", type=float, help="initial polarization override")
    p.add_argument("--n", type=_spin_count, help="ensemble size for the entropy bound")
    p.set_defaults(handler=cmd_bound)

    p = sub.add_parser("boost", help="one three-spin polarization boost")
    add_system(p)
    p.add_argument("--eps0", type=float, help="initial polarization override")
    p.add_argument("--out", help="write the post-boost state as JSON")
    p.set_defaults(handler=cmd_boost)

    p = sub.add_parser("cool", help="plan and simulate multi-round cooling")
    p.add_argument("--n", type=_spin_count, required=True, help="ensemble size")
    p.add_argument("--eps0", type=float, required=True, help="initial polarization")
    p.add_argument("--target-eps", type=float, required=True, help="goal polarization")
    p.add_argument("--recycle", action="store_true", help="reuse the second output spin")
    p.add_argument("--mode", choices=["exact", "approx", "both"], default="approx")
    p.add_argument("--out", help="write the plan as JSON")
    p.set_defaults(handler=cmd_cool)

    p = sub.add_parser("compile", help="lower a circuit to a pulse sequence")
    add_system(p)
    p.add_argument("--circuit", help="gate list file (default: the boost circuit)")
    p.add_argument("--z-mode", choices=["virtual", "pulsed"], default="virtual")
    p.add_argument("--bloch-siegert-deg", type=float, default=0.0)
    p.add_argument("--pulse90-s", type=float, default=2e-3)
    p.add_argument("--out", help="write the sequence as JSON")
    p.set_defaults(handler=cmd_compile)

    p = sub.add_parser("spectrum", help="predict one spin's readout multiplet")
    add_system(p)
    p.add_argument("--spin", help="observed spin label (default: first)")
    p.add_argument("--state", help="population-state JSON (default: thermal)")
    p.add_argument("--boosted", action="store_true", help="read out the boosted state")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(handler=cmd_spectrum)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad input and 0 after --help
        return exc.code
    try:
        capacity_limit(MAX_POPULATION_SPINS)  # a malformed COOLSPIN_MAX_N is bad input to every command
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
