"""Command-line interface: happy paths, artifacts, and exit codes."""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import coolspin
from coolspin import CoolingPlan, PulseSequence, PopulationState, SpinSystem, example_system
from coolspin.cli import build_parser, main

import oracles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_defaults(capsys):
    code, out, err = run(capsys, "bound")
    assert code == 0
    assert "a_max: 1.5" in out
    assert "enhancement: 1.5" in out
    assert "k_max(n=3, eps0=3e-05)" in out
    assert err == ""


def test_bound_with_overrides(capsys):
    for n in ("1000000000", "1e9"):
        code, out, _ = run(capsys, "bound", "--n", n, "--eps0", "3e-5")
        assert code == 0
        assert "k_max(n=1000000000, eps0=3e-05): 0.649212768497" in out


@pytest.mark.parametrize("bad", ["1.5", "0", "-3", "inf", "1e400", "nan", "many"])
def test_bound_rejects_a_spin_count_that_is_not_a_positive_whole_number(capsys, bad):
    code, out, err = run(capsys, "bound", "--n", bad)
    assert code == 2
    assert out == ""
    assert "--n" in err


@pytest.mark.parametrize("raw", ["0", "-2"])
def test_bound_rejects_a_spin_budget_below_one(capsys, monkeypatch, raw):
    monkeypatch.setenv("COOLSPIN_MAX_N", raw)
    code, out, err = run(capsys, "bound")
    assert (code, out) == (2, "")
    assert "COOLSPIN_MAX_N" in err


def _coupled_system(tmp_path, n):
    j_hz = [[0.0 if i == k else 10.0 + i + k for k in range(n)] for i in range(n)]
    system = SpinSystem(labels=[f"q{i}" for i in range(n)], j_hz=j_hz, shift_ppm=[0.0] * n, epsilon0=1e-5)
    path = tmp_path / f"sys{n}.json"
    system.save(path)
    return str(path)


@pytest.mark.parametrize("n", [12, 20])
def test_bound_runs_past_the_dense_cap(capsys, tmp_path, n):
    code, out, err = run(capsys, "bound", "--system", _coupled_system(tmp_path, n))
    assert (code, err) == (0, "")
    a_max = f"{oracles.thermal_projection_bound(n):.12g}"
    assert f"a_max: {a_max}\n" in out
    assert f"enhancement: {a_max}\n" in out


def test_bound_beyond_the_population_budget_exits_4(capsys, tmp_path):
    code, out, err = run(capsys, "bound", "--system", _coupled_system(tmp_path, 25))
    assert (code, out) == (4, "")
    assert "population vector" in err


def test_help_returns_zero_instead_of_exiting(capsys):
    code, out, _ = run(capsys, "cool", "--help")
    assert code == 0
    assert "--recycle" in out


def test_main_builds_one_parser_and_it_still_rejects_bad_flags(capsys):
    build_parser.cache_clear()
    assert run(capsys, "bound")[0] == 0
    code, out, err = run(capsys, "bound", "--n", "1.5")
    assert (code, out) == (2, "")
    assert "--n" in err
    code, out, err = run(capsys, "compile", "--bogus")
    assert (code, out) == (2, "")
    assert "--bogus" in err
    assert build_parser.cache_info().misses == 1


def test_bound_with_custom_system_and_spin(capsys, tmp_path):
    path = tmp_path / "sys.json"
    example_system().save(path)
    code, out, _ = run(capsys, "bound", "--system", str(path), "--spin", "b")
    assert code == 0
    assert "spin: b" in out


def test_boost_reports_marginals_and_writes_state(capsys, tmp_path):
    out_path = tmp_path / "post.json"
    code, out, _ = run(capsys, "boost", "--eps0", "0.5", "--out", str(out_path))
    assert code == 0
    assert "eps_a: 0.6875" in out
    assert "eps_b: 0.3125" in out
    assert "eps_c: -0.25" in out
    assert "enhancement: 1.375" in out
    assert "post relative polarization (thermal = 1): a=1.5 b=0.5 c=0" in out
    state = PopulationState.from_dict(json.loads(out_path.read_text()))
    assert state.n == 3


def test_boost_rejects_bad_polarization(capsys):
    code, out, err = run(capsys, "boost", "--eps0", "1.5")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_cool_happy_path_and_plan_artifact(capsys, tmp_path):
    out_path = tmp_path / "plan.json"
    code, out, _ = run(
        capsys, "cool", "--n", "9", "--eps0", "1e-3", "--target-eps", "2.2e-3",
        "--mode", "both", "--out", str(out_path),
    )
    assert code == 0
    assert "round 1: 3 boosts" in out
    assert "round 2: 1 boosts" in out
    assert "total gates: 32" in out
    assert "exact vs approx max difference:" in out
    plan = CoolingPlan.from_dict(json.loads(out_path.read_text()))
    assert plan.total_gate_count == 32


def test_cool_unreachable_target_exits_3(capsys):
    code, _, err = run(capsys, "cool", "--n", "6", "--eps0", "1e-3", "--target-eps", "2.2e-3")
    assert code == 3
    assert "infeasible:" in err


def test_cool_exact_mode_beyond_capacity_exits_4(capsys):
    code, _, err = run(
        capsys, "cool", "--n", "27", "--eps0", "1e-5", "--target-eps", "1.4e-5",
        "--mode", "exact",
    )
    assert code == 4
    assert "capacity:" in err


def test_compile_default_circuit_verifies(capsys, tmp_path):
    out_path = tmp_path / "seq.json"
    code, out, _ = run(capsys, "compile", "--out", str(out_path))
    assert code == 0
    assert "events: 38" in out
    assert "pulses: 23" in out
    assert "verification: PASS" in out
    seq = PulseSequence.from_json(out_path.read_text())
    assert seq.pulse_count() == 23


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--pulse90-s", "nan", "pulse90_s"),
        ("--pulse90-s", "inf", "pulse90_s"),
        ("--bloch-siegert-deg", "inf", "angle_deg"),
        ("--bloch-siegert-deg", "nan", "angle_deg"),
    ],
)
def test_compile_rejects_non_finite_flags(capsys, flag, value, field):
    code, out, err = run(capsys, "compile", flag, value)
    assert (code, out) == (2, "")
    assert field in err and "finite" in err


def test_compile_custom_circuit_and_options(capsys, tmp_path):
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("CNOT b c\n")
    code, out, _ = run(
        capsys, "compile", "--circuit", str(circuit), "--z-mode", "pulsed",
        "--pulse90-s", "1e-3",
    )
    assert code == 0
    assert "verification: PASS" in out


def test_compile_rotation_circuit_skips_pattern_check(capsys, tmp_path):
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("RY a 45\n")
    code, out, _ = run(capsys, "compile", "--circuit", str(circuit))
    assert code == 0
    assert "verification: SKIPPED" in out


def test_compile_verifies_past_the_dense_cap_in_under_a_second(capsys, tmp_path):
    system = _coupled_system(tmp_path, 12)
    start = time.perf_counter()
    code, out, _ = run(capsys, "compile", "--system", system)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "verification: PASS" in out.splitlines()
    assert elapsed < 1.0


def test_compile_past_the_dense_cap_still_fails_a_wrong_sequence(capsys, tmp_path):
    code, out, _ = run(
        capsys, "compile", "--system", _coupled_system(tmp_path, 10), "--bloch-siegert-deg", "3"
    )
    assert code == 0
    assert "verification: FAIL" in out.splitlines()


@pytest.mark.parametrize("n, budget", [(17, None), (10, "9")])
def test_compile_skips_verification_above_the_verify_cap(capsys, monkeypatch, tmp_path, n, budget):
    if budget is not None:
        monkeypatch.setenv("COOLSPIN_MAX_N", budget)
    code, out, _ = run(capsys, "compile", "--system", _coupled_system(tmp_path, n))
    assert code == 0
    assert "verification: SKIPPED (system too large to verify)" in out.splitlines()


def test_compile_missing_circuit_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "compile", "--circuit", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error:" in err


def test_spectrum_thermal_csv(capsys):
    code, out, _ = run(capsys, "spectrum")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "freq_hz,amplitude"
    assert len(lines) == 5
    assert all(line.endswith(",1.0") for line in lines[1:])


def test_spectrum_boosted_matches_boost_artifact(capsys, tmp_path):
    state_path = tmp_path / "post.json"
    run(capsys, "boost", "--eps0", "3e-5", "--out", str(state_path))

    code, direct, _ = run(capsys, "spectrum", "--boosted", "--spin", "a")
    assert code == 0
    code, via_file, _ = run(capsys, "spectrum", "--state", str(state_path), "--spin", "a")
    assert code == 0
    assert via_file == direct
    amplitudes = [line.split(",")[1] for line in direct.strip().splitlines()[1:]]
    assert amplitudes == ["1.0", "2.0", "1.0", "2.0"]


def test_spectrum_out_file(capsys, tmp_path):
    out_path = tmp_path / "lines.csv"
    code, out, _ = run(capsys, "spectrum", "--out", str(out_path))
    assert code == 0
    assert f"wrote {out_path}" in out
    assert out_path.read_text().startswith("freq_hz,amplitude\n")


def test_spectrum_unknown_spin_exits_2(capsys):
    code, _, err = run(capsys, "spectrum", "--spin", "q")
    assert code == 2
    assert "unknown spin label" in err


def test_spectrum_corrupt_state_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "spectrum", "--state", str(bad))
    assert code == 2
    assert "error:" in err


def run_module(*argv, **env_vars):
    # Run the same package the tests import, installed or not.
    src = str(Path(coolspin.__file__).parents[1])
    env = {**os.environ, **env_vars}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "coolspin", *argv], capture_output=True, text=True, env=env
    )


def test_running_as_a_module_works():
    proc = run_module("bound")
    assert proc.returncode == 0
    assert "a_max: 1.5" in proc.stdout


def test_a_malformed_spin_budget_is_bad_input_not_an_import_failure():
    # The package builds small Iz tables at import; the budget is read later.
    proc = run_module("bound", COOLSPIN_MAX_N="abc")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: COOLSPIN_MAX_N must be a positive integer")
