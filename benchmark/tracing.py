"""Spans around the calls `coolspin.cli` makes into each module.

`Tracer.install` swaps timing wrappers into the names `coolspin.cli` looks
up and onto the public methods it calls, and `uninstall` puts the originals
back; no file of the package changes. Spans stay in memory, each with the
command that caused it and its enclosing span, until `dump` writes them out.
A command's time not covered by its top-level spans is `cli.self_s`:
argument parsing, printing and file writes.
"""
from __future__ import annotations

import functools
import json
import os
import time
import types


def _mode(args, kwargs) -> str:
    return kwargs.get("mode", args[1] if len(args) > 1 else "approx")


def _plan_counters(plan, args, kwargs) -> dict:
    return {
        "rounds": len(plan.rounds),
        "triples": sum(len(r.triples) for r in plan.rounds),
        "spins": plan.n,
    }


def _state_bytes(result, args, kwargs) -> dict:
    # Bytes of one float64 vector of the replayed state, computed from its
    # size rather than measured: n polarizations, or 2**n probabilities.
    n = args[0].n
    return {"state_bytes": 8 * (n if _mode(args, kwargs) == "approx" else 2**n)}


def _sequence_counters(seq, args, kwargs) -> dict:
    return {"events": len(seq.events), "pulses": seq.pulse_count()}


def _propagator_counters(unitary, args, kwargs) -> dict:
    return {"events": len(args[0].events), "dim": unitary.mat.shape[0]}


def _text_bytes(text, args, kwargs) -> dict:
    return {"bytes": len(text)}


def _loaded_bytes(result, args, kwargs) -> dict:
    return {"bytes": len(args[0])}


def _file_bytes(result, args, kwargs) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _line_count(spectrum, args, kwargs) -> dict:
    return {"lines": len(spectrum.lines)}


# Name looked up in coolspin.cli -> (span name, counters).
CLI_NAMES = {
    "plan_rounds": ("cooling.plan_rounds", _plan_counters),
    "simulate_plan": ("cooling.simulate_plan", _state_bytes),
    "boost_exact": ("cooling.boost_exact", None),
    "max_projection": ("bounds.max_projection", None),
    "entropy_bound_kmax": ("bounds.entropy_bound_kmax", None),
    "parse_circuit": ("compiler.parse_circuit", None),
    "compile_circuit": ("compiler.compile_circuit", _sequence_counters),
    "circuit_permutation": ("gates.circuit_permutation", None),
    "iz_operator": ("operators.iz_operator", None),
    "simulate_sequence": ("propagator.simulate_sequence", _propagator_counters),
    "permutation_unitary": ("propagator.permutation_unitary", None),
    "phase_pattern_equal": ("propagator.phase_pattern_equal", None),
    "readout": ("spectra.readout", _line_count),
    "thermal_state": ("states.thermal_state", None),
    "apply_permutation": ("states.apply_permutation", None),
    "example_system": ("system.example_system", None),
}
# (module attribute of coolspin, class, method) -> (span name, counters).
METHODS = {
    ("cooling", "CoolingPlan", "to_dict"): ("cooling.CoolingPlan.to_dict", None),
    ("pulses", "PulseSequence", "to_json"): ("pulses.PulseSequence.to_json", _text_bytes),
    ("spectra", "Spectrum", "to_csv"): ("spectra.Spectrum.to_csv", _text_bytes),
    ("states", "PopulationState", "from_dict"): ("states.PopulationState.from_dict", None),
    ("system", "SpinSystem", "load"): ("system.load", _file_bytes),
}
# The json functions coolspin.cli calls -> (span name, counters).
JSON_NAMES = {
    "loads": ("json.loads", _loaded_bytes),
    "dumps": ("json.dumps", _text_bytes),
}

# Every span and counter reported per layer, in print order. simulate_plan
# spans are named by mode; the workloads use "approx" and "both".
SPANS = sorted(
    [name for name, _ in CLI_NAMES.values() if name != "cooling.simulate_plan"]
    + ["cooling.simulate_plan.approx", "cooling.simulate_plan.both"]
    + [name for name, _ in METHODS.values()]
    + [name for name, _ in JSON_NAMES.values()]
)
COUNTERS = {
    "cooling.plan_rounds.rounds": "count",
    "cooling.plan_rounds.triples": "count",
    "cooling.plan_rounds.spins": "count",
    "cooling.simulate_plan.approx.state_bytes": "B_computed",
    "cooling.simulate_plan.both.state_bytes": "B_computed",
    "compiler.compile_circuit.events": "count",
    "compiler.compile_circuit.pulses": "count",
    "propagator.simulate_sequence.events": "count",
    "propagator.simulate_sequence.dim": "count",
    "spectra.readout.lines": "count",
    "json.loads.bytes": "B",
    "json.dumps.bytes": "B",
    "system.load.bytes": "B",
    "pulses.PulseSequence.to_json.bytes": "B",
    "spectra.Spectrum.to_csv.bytes": "B",
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric `Tracer.metrics` reports."""
    units = {}
    for span in SPANS:
        units.update({f"{span}.calls": "count", f"{span}.busy_s": "s", f"{span}.share": "ratio", f"{span}.failed": "count"})
    units.update(COUNTERS)
    units.update({"cli.self_s": "s", "cli.self_s.share": "ratio", "trace.overhead": "ratio"})
    return units


class Tracer:
    """In-memory spans for the commands run while it is installed."""

    def __init__(self):
        self.commands: list[dict] = []
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- command boundaries ---------------------------------------------------

    def command(self, name: str, t0: float, t1: float) -> None:
        """Close the current command, which ran from t0 to t1."""
        self.commands.append({"name": name, "t0": t0, "t1": t1})
        self._stack.clear()

    # --- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name: str, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "cmd": len(self.commands),
                "name": f"{name}.{_mode(args, kwargs)}" if name == "cooling.simulate_plan" else name,
                "parent": self._stack[-1] if self._stack else None,
                "failed": False,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["failed"] = True
                raise
            finally:
                span["t1"] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span["counters"] = counters(result, args, kwargs)
            return result

        return traced

    def _swap(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        cli = package.cli
        for attr, (name, counters) in CLI_NAMES.items():
            self._swap(cli, attr, self._wrap(getattr(cli, attr), name, counters))
        for (module, cls_name, attr), (name, counters) in METHODS.items():
            cls = getattr(getattr(package, module), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._swap(cls, attr, classmethod(self._wrap(raw.__func__, name, counters)))
            else:
                self._swap(cls, attr, self._wrap(raw, name, counters))
        proxy = types.SimpleNamespace(**vars(cli.json))
        for attr, (name, counters) in JSON_NAMES.items():
            setattr(proxy, attr, self._wrap(getattr(cli.json, attr), name, counters))
        self._swap(cli, "json", proxy)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each command's wall time minus its top-level spans.

        Raises ValueError if a top-level span leaves its command's interval
        or overlaps another, since then the spans cannot account for the
        command's wall time.
        """
        top: list[list[dict]] = [[] for _ in self.commands]
        for span in self.spans:
            if span["parent"] is None:
                top[span["cmd"]].append(span)
        out = []
        for cmd, spans in zip(self.commands, top):
            edge = cmd["t0"]
            for span in spans:
                if span["t0"] < edge or span["t1"] > cmd["t1"]:
                    raise ValueError(f"span {span['name']} falls outside its command {cmd['name']!r}")
                edge = span["t1"]
            out.append((cmd["t1"] - cmd["t0"]) - sum(s["t1"] - s["t0"] for s in spans))
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over every command traced so far."""
        wall = sum(c["t1"] - c["t0"] for c in self.commands)
        values = {}
        for span in SPANS:
            mine = [s for s in self.spans if s["name"] == span]
            busy = sum(s["t1"] - s["t0"] for s in mine)
            values[f"{span}.calls"] = len(mine)
            values[f"{span}.busy_s"] = busy
            values[f"{span}.share"] = busy / wall
            values[f"{span}.failed"] = sum(s["failed"] for s in mine)
        for counter in COUNTERS:
            span, key = counter.rsplit(".", 1)
            seen = [s["counters"][key] for s in self.spans if s["name"] == span and "counters" in s]
            # Mean per call, so the figure does not depend on how many cycles ran.
            values[counter] = sum(seen) / len(seen) if seen else 0
        self_s = sum(self.self_times())
        values["cli.self_s"] = self_s
        values["cli.self_s.share"] = self_s / wall
        return values

    def dump(self, path, header: dict) -> None:
        """Write every command and span, with times relative to the first command."""
        origin = self.commands[0]["t0"] if self.commands else 0.0
        shift = lambda rec: {**rec, "t0": rec["t0"] - origin, "t1": rec["t1"] - origin}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {**header, "commands": [shift(c) for c in self.commands], "spans": [shift(s) for s in self.spans]},
                fh,
            )
