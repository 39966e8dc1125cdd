"""Benchmark of the coolspin command line, one workload per invocation.

    python3 benchmark/run.py --workload cool-approx --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. Each workload is a closed loop with one client: one process calls
`coolspin.cli.main(argv)` in-process, as a user runs each subcommand, and
starts the next command when the last one returns. Stdout is captured in
memory and `--out` artifacts go to a scratch directory under
`.benchout/`. Every command's output is checked against references in
`checks.py`; a nonzero exit or a failed check counts as a failure.

A run first times `import coolspin.cli` in fresh interpreters (`setup_s`),
then runs each distinct command once untimed (warm-up), then runs cycles of
the workload's commands, each cycle in a seeded order, until `--seconds`
have passed (and at least MIN_CYCLES cycles).

Timings are host-normalized. The host this benchmark was defined on is a
shared VM whose speed drifts by up to 2x over seconds to minutes, which no
run length averages out. So a fixed `probe` (no coolspin code) runs between
commands, and each latency is divided by the host factor, the probe's time
next to it over its nominal time (PROBE_NOMINAL_S): seconds on a host as
fast as the reference one. Each command's median normalized latency then
gives `cmds_per_s` (commands per summed median) and `cmd_geomean_ms` (their
geometric mean). Raw wall-clock latencies, their pooled median and tail, and
the host factors are printed too.
With `--trace 1` the timed cycles run twice, untraced and then traced, and
the per-layer metrics come from the traced ones; the span log is written to
`.benchout/trace-<workload>-<seed>.json`.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end ones untraced, per-layer ones traced).
`--workload all` runs every workload, each in its own process.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".benchout"
sys.path.insert(0, str(HERE))
# One BLAS thread, set before numpy loads. With the default two on a 2-vCPU
# host, the propagator's matrix products also depend on how busy the second
# vCPU is, which the single-threaded probe cannot see.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

SETUP_SAMPLES = 5
MIN_CYCLES = 2
# The pooled tail printed for information: the latency with this many
# samples above it.
TAIL_BEYOND = 10
PROBE_EVERY_S = 0.25
PROBE_LOOPS = 50_000
# About the `probe`'s median time on the host the benchmark was defined on.
# It only scales the normalized timings; changing it changes every baseline.
PROBE_NOMINAL_S = 0.008
END_TO_END_UNITS = {
    "setup_s": "s",
    "cmds_per_s": "1/s",
    "cmd_geomean_ms": "ms",
    "peak_rss_mb": "MB",
}
_IMPORT_TIMER = "import time; t = time.perf_counter(); import coolspin.cli; print(time.perf_counter() - t)"


def probe() -> float:
    """Seconds the host takes for a fixed interpreted loop of dict updates.

    Nothing of coolspin runs in it, so a change to the program cannot move
    it. Over runs on the reference host, this pure-Python probe tracked the
    host's drift better than probes with numpy gathers or matrix products,
    on the memory-bound exact replay too.
    """
    t0 = time.perf_counter()
    pools: dict[int, float] = {}
    for i in range(PROBE_LOOPS):
        pools[i % 97] = pools.get(i % 97, 0.0) + i * 0.5
    return time.perf_counter() - t0


def measure_setup() -> list[tuple[float, float]]:
    """(seconds, host factor) to import coolspin.cli in each of several fresh interpreters.

    One untimed import first compiles the bytecode, which users pay once.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        before = probe()
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(f"importing coolspin.cli failed: {proc.stderr.strip()}")
        times.append((float(proc.stdout), (before + probe()) / (2.0 * PROBE_NOMINAL_S)))
    return times[1:]


def import_cli():
    sys.path.insert(0, str(SRC))
    import coolspin
    import coolspin.cli

    origin = Path(coolspin.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"coolspin was imported from {origin}, not from {SRC}")
    return coolspin


def blas_threads() -> str:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return str(getattr(lib, symbol)())
    return "unknown"


def shown(command_name: str) -> str:
    """A command line with its scratch paths relative to the checkout."""
    return command_name.replace(str(OUT_DIR), OUT_DIR.name)


def environment(args, commands) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "commands": [shown(c.name) for c in commands],
    }


def execute(main, command, tracer=None) -> tuple[float, str | None]:
    """Run one command; return its latency and None, or a failure message."""
    out, err = io.StringIO(), io.StringIO()
    # Start each command from a settled heap, as a fresh CLI process does, so
    # no command pays for collecting the garbage of the one before it.
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(command.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = f"exception\n{traceback.format_exc()}"
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.command(command.name, t0, t1)
    if rc != 0:
        return t1 - t0, f"exit {rc}: {err.getvalue().strip()}"
    try:
        command.check(out.getvalue())
    except CheckError as exc:
        return t1 - t0, f"check failed: {exc}"
    except Exception as exc:  # output the check could not even parse
        return t1 - t0, f"check failed: {exc!r}"
    return t1 - t0, None


def measure(main, commands, rng, seconds: float, tracer=None) -> tuple[list[tuple[int, float, float]], list[str]]:
    """Run cycles, each in a fresh seeded order, until `seconds` have passed.

    At least MIN_CYCLES whole cycles run; after that the loop stops at the
    first command boundary past the deadline. A `probe` runs before any
    command that starts PROBE_EVERY_S or more after the last probe, and once
    at the end. Returns (command index, latency, host factor) samples and
    failures, where the host factor is the mean time of the probes either
    side of the command over PROBE_NOMINAL_S.
    """
    samples, failures, probes, before = [], [], [], []
    last_probe = -math.inf
    deadline = time.perf_counter() + seconds
    cycle = 0
    while cycle < MIN_CYCLES or time.perf_counter() < deadline:
        order = list(range(len(commands)))
        rng.shuffle(order)
        for index in order:
            if cycle >= MIN_CYCLES and time.perf_counter() >= deadline:
                break
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe())
                last_probe = time.perf_counter()
            latency, failure = execute(main, commands[index], tracer)
            samples.append((index, latency))
            before.append(len(probes) - 1)
            if failure is not None:
                failures.append(f"{commands[index].name}: {failure}")
        cycle += 1
    probes.append(probe())
    factors = [(probes[i] + probes[i + 1]) / (2.0 * PROBE_NOMINAL_S) for i in before]
    return [(index, latency, f) for (index, latency), f in zip(samples, factors)], failures


def per_command(samples, commands: int, pick) -> list[float]:
    """`pick` of each command's host-normalized latencies (latency / host factor)."""
    values: list[list[float]] = [[] for _ in range(commands)]
    for index, latency, factor in samples:
        values[index].append(latency / factor)
    return [pick(v) for v in values]


def throughput(samples, commands: int) -> float:
    """Commands per second over one cycle run at each command's median normalized latency."""
    return commands / sum(per_command(samples, commands, statistics.median))


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(line: str) -> None:
    print(line, flush=True)


def run_workload(args) -> int:
    if not (SRC / "coolspin" / "cli.py").is_file():
        print(f"error: no coolspin sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    setup = measure_setup()
    package = import_cli()
    main = package.cli.main
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        commands, rng = workloads.build(args.workload, args.seed, Path(tmp), ROOT, main)
        env = environment(args, commands)
        report("environment: " + json.dumps(env))

        warm_failures = [f"{c.name}: {f}" for c in commands if (f := execute(main, c)[1]) is not None]
        samples, failures = measure(main, commands, rng, args.seconds)
        traced, per_layer, trace_failures = [], {}, []
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(package)
            try:
                traced, trace_failures = measure(main, commands, rng, args.seconds, tracer)
            finally:
                tracer.uninstall()
            try:
                per_layer = tracer.metrics()
            except ValueError as exc:
                trace_failures.append(f"trace: {exc}")
            else:
                per_layer["trace.overhead"] = throughput(traced, len(commands)) / throughput(samples, len(commands))
            trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
            tracer.dump(trace_path, {"environment": env, "per_layer": per_layer})
            report(f"trace written to {trace_path.relative_to(ROOT)}")

    medians = per_command(samples, len(commands), statistics.median)
    end_to_end = {
        "setup_s": statistics.median(t / f for t, f in setup),
        "cmds_per_s": throughput(samples, len(commands)),
        "cmd_geomean_ms": 1000.0 * statistics.geometric_mean(medians),
        "peak_rss_mb": peak_rss_mb(),
    }
    w = args.workload
    by_command: list[list[float]] = [[] for _ in commands]
    for index, latency, _ in samples:
        by_command[index].append(latency)
    for index in sorted(range(len(commands)), key=lambda i: medians[i]):
        values = by_command[index]
        report(
            f"{w} median {1000.0 * medians[index]:10.3f} ms  raw median"
            f" {1000.0 * statistics.median(values):10.3f} ms  of {len(values)}  {shown(commands[index].name)}"
        )
    for name, value in end_to_end.items():
        report(f"{w} {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    latencies = [latency for _, latency, _ in samples]
    tail_s, tail_pct = tail(latencies)
    report(f"{w} failed_ratio = {len(failures) / len(samples):.6g} ({len(failures)}/{len(samples)})")
    report(
        f"{w} pooled raw latency, not gated: median {1000.0 * statistics.median(latencies):.6g} ms,"
        f" p{tail_pct:.2f} {1000.0 * tail_s:.6g} ms, of {len(samples)} samples"
    )
    report(f"{w} setup_s raw samples: {', '.join(f'{t:.4f}' for t, _ in setup)}")
    factors = sorted(f for _, _, f in samples)
    report(f"{w} host factor: median {statistics.median(factors):.3f}, range {factors[0]:.3f}-{factors[-1]:.3f}")
    units = tracing.per_layer_units()
    for name, value in per_layer.items():
        report(f"{w} {name} = {value:.6g} {units[name]}")
    for failure in warm_failures + failures + trace_failures:
        print(f"FAILED {failure}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": per_layer.get(name, 0), "unit": unit} for name, unit in units.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in end_to_end.items()}
    result = {
        "correct": not (warm_failures or failures or trace_failures),
        "attempted": len(samples) + len(traced),
        "failed": len(failures) + len(trace_failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb stays its own."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
