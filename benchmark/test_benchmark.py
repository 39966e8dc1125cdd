"""Self-tests of the benchmark: failures are counted, latencies are normalized, spans add up, names agree.

    python3 -m pytest benchmark -q
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from workloads import Command

package = run.import_cli()
BUNDLED = json.loads((run.SRC / "coolspin" / "data" / "c2f3br.json").read_text())
BOUND = Command(["bound"], partial(checks.check_bound, label="a", n=3, eps0=BUNDLED["epsilon0"], n_kmax=3))


def corrupting(main, old: str, new: str):
    """A CLI entry point whose captured stdout has `old` replaced by `new`."""

    def corrupted(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        print(buf.getvalue().replace(old, new), end="")
        return rc

    return corrupted


def test_correct_output_passes():
    latency, failure = run.execute(package.cli.main, BOUND)
    assert failure is None and latency > 0.0


def test_corrupted_output_counts_as_failure():
    main = corrupting(package.cli.main, "a_max: 1.5", "a_max: 1.50001")
    _, failure = run.execute(main, BOUND)
    assert failure is not None and failure.startswith("check failed: a_max")


def test_nonzero_exit_counts_as_failure(tmp_path):
    missing = Command(["spectrum", "--state", str(tmp_path / "missing.json")], lambda out: None)
    _, failure = run.execute(package.cli.main, missing)
    assert failure is not None and failure.startswith("exit 2")
    samples, failures = run.measure(package.cli.main, [BOUND, missing], random.Random(0), 0.0)
    assert len(samples) == 4 and len(failures) == 2
    assert all(factor > 0.0 for *_, factor in samples)


def test_latencies_are_divided_by_the_host_factor():
    samples = [(0, 0.2, 2.0), (0, 0.1, 1.0), (1, 0.3, 0.5), (0, 0.9, 1.0)]
    assert run.per_command(samples, 2, statistics.median) == pytest.approx([0.1, 0.6])
    assert run.throughput(samples, 2) == pytest.approx(2 / 0.7)


def test_corrupted_spectrum_amplitude_is_caught():
    pops, j_hz = checks.boosted_pops3(), np.asarray(BUNDLED["j_hz"])
    spectrum = Command(["spectrum", "--boosted"], partial(checks.check_spectrum_csv, pops=pops, j_hz=j_hz))
    assert run.execute(package.cli.main, spectrum)[1] is None
    swapped = checks.permuted(pops, np.array([1, 0, 2, 3, 4, 5, 6, 7]))
    wrong = Command(spectrum.argv, partial(checks.check_spectrum_csv, pops=swapped, j_hz=j_hz))
    assert "amplitudes differ" in run.execute(package.cli.main, wrong)[1]


def test_spans_and_self_time_add_up_to_each_command(tmp_path):
    commands, rng = workloads.build("cool-exact", 3, tmp_path, run.ROOT, package.cli.main)
    small = [c for c in commands if c.argv[2] == "15"] + [BOUND]
    original = package.cli.plan_rounds
    tracer = tracing.Tracer()
    tracer.install(package)
    try:
        samples, failures = run.measure(package.cli.main, small, rng, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert package.cli.plan_rounds is original and package.cli.json is json
    assert failures == []
    walls = [c["t1"] - c["t0"] for c in tracer.commands]
    assert walls == pytest.approx([latency for _, latency, _ in samples], abs=1e-3)
    for cmd, self_s in enumerate(tracer.self_times()):
        top = sum(s["t1"] - s["t0"] for s in tracer.spans if s["cmd"] == cmd and s["parent"] is None)
        assert self_s >= 0.0
        assert self_s + top == pytest.approx(walls[cmd], abs=1e-12)
    metrics = tracer.metrics()
    assert metrics["cooling.simulate_plan.both.calls"] == 4
    assert metrics["cooling.simulate_plan.both.state_bytes"] == 8 * 2**15
    assert metrics["cooling.plan_rounds.spins"] == 15


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()
