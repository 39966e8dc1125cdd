"""Command-line interface: happy paths, artifacts, and exit codes."""
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coolspin
from coolspin import CoolingPlan, PulseSequence, PopulationState, SpinSystem, example_system
from coolspin import cli, cooling, states
from coolspin.cli import build_parser, main
from coolspin.gates import PERMUTATION_KINDS, ROTATION_KINDS

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


def test_bound_needs_no_population_budget(capsys, tmp_path):
    # The closed form builds no 2**n vector: 1000 spins print the rational oracle's digits.
    code, out, err = run(capsys, "bound", "--system", _coupled_system(tmp_path, 1000), "--spin", "q999")
    assert (code, err) == (0, "")
    a_max = f"{oracles.thermal_projection_bound(1000):.12g}"
    assert out.startswith(f"spin: q999\na_initial: 1\na_max: {a_max}\nenhancement: {a_max}\n")


_EVERY_SUBCOMMAND = {
    "bound": ("bound",),
    "boost": ("boost",),
    "cool": ("cool", "--n", "9", "--eps0", "1e-3", "--target-eps", "2.2e-3", "--mode", "approx"),
    "compile": ("compile",),
    "spectrum": ("spectrum",),
}


@pytest.mark.parametrize("argv", list(_EVERY_SUBCOMMAND.values()), ids=list(_EVERY_SUBCOMMAND))
def test_every_subcommand_refuses_a_malformed_spin_budget_up_front(capsys, monkeypatch, argv):
    assert run(capsys, *argv)[0] == 0
    for raw in ("abc", "0"):
        monkeypatch.setenv("COOLSPIN_MAX_N", raw)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: COOLSPIN_MAX_N must be a positive integer")


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


def test_a_documented_spelling_builds_no_parser(capsys):
    build_parser.cache_clear()
    for argv in _EVERY_SUBCOMMAND.values():
        assert run(capsys, *argv)[0] == 0
    assert run(capsys, "spectrum", "--boosted", "--spin", "b", "--system", str(coolspin.example_system_path()))[0] == 0
    assert build_parser.cache_info().misses == 0


# Values for each kind of flag the table reads, and values it leaves to argparse:
# they start with "-" or fail the flag's type.
_TABLE_VALUES = {float: ["1e-3", "3e-5", "2.2e-3", "0", "nan"], cli._spin_count: ["9", "27", "1e9"], str: ["a", "q0", ""]}
_OTHER_VALUES = {float: ["-1", "-1e-5", "-0.0", "x", ""], cli._spin_count: ["1.5", "0", "-1", "many"], str: ["-1", "-0.0"]}
_OTHER_TOKENS = ["--bogus", "-h", "--help", "--", "-1", "extra"]


def _draw_value(data, flag, keywords):
    """A value for the flag, and whether the table reads it."""
    if "choices" in keywords:
        good, other = keywords["choices"], ["bogus", "-1"]
    else:
        good, other = _TABLE_VALUES[keywords.get("type", str)], _OTHER_VALUES[keywords.get("type", str)]
    value = data.draw(st.sampled_from([*good, *other]), label=f"{flag} value")
    return value, value in good


def _draw_argv(data):
    """An argv, and whether it is the documented spelling of a command the table reads."""
    command = data.draw(st.sampled_from([*cli.COMMANDS, "bogus", "-h", None]), label="command")
    if command not in cli.COMMANDS:
        return ([] if command is None else [command]), False
    flags = cli.COMMANDS[command][2]
    order = data.draw(st.permutations(list(flags)), label="order")
    argv, documented = [command], True
    for flag in order:
        keywords = flags[flag]
        if not (keywords.get("required") or data.draw(st.booleans(), label=f"give {flag}")):
            continue
        spellings = ["full"] * 3 + ["abbreviated", "equals", "repeated"] + ["dropped"] * bool(keywords.get("required"))
        spelling = data.draw(st.sampled_from(spellings), label=f"{flag} spelling")
        documented &= spelling in ("full", "repeated")
        if spelling == "dropped":
            continue
        name = flag[: data.draw(st.integers(min(3, len(flag) - 1), len(flag) - 1), label="prefix")] if spelling == "abbreviated" else flag
        for _ in range(1 + (spelling == "repeated")):
            if "action" in keywords:  # a switch takes no value, so "--recycle=1" is an error
                argv.append(f"{name}=1" if spelling == "equals" else name)
                continue
            value, read = _draw_value(data, flag, keywords)
            documented &= read
            argv += [f"{name}={value}"] if spelling == "equals" else [name, value]
    if data.draw(st.booleans(), label="other token"):
        argv.insert(data.draw(st.integers(1, len(argv)), label="at"), data.draw(st.sampled_from(_OTHER_TOKENS), label="token"))
        documented = False
    return argv, documented


def _argparse_call(argv):
    """The handler and keyword arguments read off argparse's namespace: every field but the subcommand."""
    fields = vars(build_parser().parse_args(argv))
    return fields.pop("handler"), {key: value for key, value in fields.items() if key != "subcommand"}


def _parse_outcome(parse, argv):
    """The handler and its keyword arguments as reprs (a NaN equals its own repr), or the exit code; then stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            handler, kwargs = parse(argv)
            result = handler, {key: repr(value) for key, value in kwargs.items()}
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_the_table_parse_agrees_with_argparse(data):
    argv, documented = _draw_argv(data)
    outcome = _parse_outcome(cli.parse_args, argv)
    assert outcome == _parse_outcome(_argparse_call, argv)
    assert (cli._parse_table(argv) is not None) == documented


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_each_handler_takes_its_flags_by_name_and_nothing_else(command):
    handler, _, flags = cli.COMMANDS[command]
    params = inspect.signature(handler).parameters.values()
    assert [p.name for p in params] == [flag[2:].replace("-", "_") for flag in flags]
    assert all(p.kind is p.KEYWORD_ONLY and p.default is p.empty for p in params)


@pytest.mark.parametrize("argv", list(_EVERY_SUBCOMMAND.values()), ids=list(_EVERY_SUBCOMMAND))
def test_a_handler_returns_exactly_what_main_prints(capsys, argv):
    handler, kwargs = cli.parse_args(list(argv))
    assert handler is cli.COMMANDS[argv[0]][0]
    text, artifact = handler(**kwargs)
    assert artifact is None and text.endswith("\n")
    assert run(capsys, *argv) == (0, text, "")


def test_a_handler_hands_its_artifact_to_main(capsys, tmp_path):
    path = str(tmp_path / "spec.csv")
    csv, _ = cli.cmd_spectrum(system=None, spin=None, state=None, boosted=True, out=None)
    assert cli.cmd_spectrum(system=None, spin=None, state=None, boosted=True, out=path) == ("", (path, csv))
    assert not os.path.exists(path)
    assert run(capsys, "spectrum", "--boosted", "--out", path) == (0, f"wrote {path}\n", "")
    assert Path(path).read_text() == csv


# id -> (argv, exit code, stderr: the whole of it when it ends in a newline,
# else its start). "{tmp}" is the test's scratch directory; "{sys30}" a 30-spin system.
_FAILING_COMMANDS = {
    "boost-full-device": (["boost", "--out", "/dev/full"], 2, "error: [Errno 28] No space left on device\n"),
    "compile-missing-dir": (["compile", "--out", "{tmp}/missing/seq.json"], 2, "error: [Errno 2]"),
    "cool-missing-dir": (
        ["cool", "--n", "9", "--eps0", "1e-3", "--target-eps", "2.2e-3", "--out", "{tmp}/missing/plan.json"], 2, "error: [Errno 2]"
    ),
    "compile-out-of-memory": (["compile"], 4, "capacity: out of memory\n"),
    "spectrum-missing-dir": (["spectrum", "--out", "{tmp}/missing/spec.csv"], 2, "error: [Errno 2]"),
    "bound-bad-flag": (["bound", "--bogus"], 2, "usage:"),
    "boost-bad-system": (["boost", "--system", "{tmp}/nowhere.json"], 2, "error: [Errno 2]"),
    "compile-bad-system": (["compile", "--system", "{tmp}/nowhere.json"], 2, "error: [Errno 2]"),
    "spectrum-bad-spin": (["spectrum", "--spin", "zz"], 2, "error:"),
    "cool-infeasible": (["cool", "--n", "9", "--eps0", "1e-3", "--target-eps", "0.5"], 3, "infeasible:"),
    "cool-capacity": (
        ["cool", "--n", "1e9", "--eps0", "1e-3", "--target-eps", "2.2e-3", "--out", "{tmp}/plan.json"], 4, "capacity:"
    ),
    "spectrum-capacity": (["spectrum", "--system", "{sys30}"], 4, "capacity:"),
}


@pytest.mark.parametrize("case", list(_FAILING_COMMANDS))
def test_a_command_that_exits_non_zero_prints_nothing_on_stdout(capsys, monkeypatch, tmp_path, case):
    argv, code, err_text = _FAILING_COMMANDS[case]
    if "/dev/full" in argv and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    if case == "compile-out-of-memory":  # the verification's allocations run out
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "verify_permutation", exhausted)
    sys30 = _coupled_system(tmp_path, 30) if "{sys30}" in argv else None
    got_code, out, err = run(capsys, *(token.format(tmp=tmp_path, sys30=sys30) for token in argv))
    assert (got_code, out) == (code, "")
    assert err == err_text if err_text.endswith("\n") else err.startswith(err_text), err
    assert not (tmp_path / "plan.json").exists()


@pytest.mark.parametrize("value", ["-1", "-1e-5", "-1E+3", "-.5e-2", "-2.5", "-3.", "-inf", "-Infinity", "-nan"])
@pytest.mark.parametrize(
    "argv, message",
    [(["bound"], "polarization must lie in [0, 1]"), (["cool", "--n", "9", "--target-eps", "2.2e-3"], "eps0 must lie in (0, 1)")],
    ids=["bound", "cool"],
)
def test_a_negative_number_in_any_float_spelling_is_a_value(capsys, argv, message, value):
    code, out, err = run(capsys, *argv, "--eps0", value)
    assert (code, out, err) == (2, "", f"error: {message}, got {float(value)!r}\n")


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


def test_boost_writes_to_a_device(capsys):
    code, out, err = run(capsys, "boost", "--out", os.devnull)
    assert (code, err) == (0, "")
    assert out.endswith(f"wrote {os.devnull}\n")


def test_boost_reports_a_full_device(capsys):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    code, out, err = run(capsys, "boost", "--out", "/dev/full")
    assert (code, err) == (2, "error: [Errno 28] No space left on device\n")
    assert "wrote" not in out


@pytest.mark.parametrize(
    "target, message",
    [(".", "[Errno 21] Is a directory: '{}'"), ("missing/post.json", "[Errno 2] No such file or directory: '{}'")],
)
def test_boost_refuses_an_unwritable_path(capsys, tmp_path, target, message):
    path = str(tmp_path / target)
    code, _, err = run(capsys, "boost", "--out", path)
    assert (code, err) == (2, f"error: {message.format(path)}\n")


def test_boost_write_failing_partway_leaves_an_empty_file(capsys, monkeypatch, tmp_path):
    # Without the truncation, half the new state would sit before the old file's tail.
    def half_write(fd, data):
        os.write(fd, data[: len(data) // 2])
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(states, "os", SimpleNamespace(**{**vars(os), "write": half_write}))
    path = tmp_path / "post.json"
    path.write_text("x" * 1_000_000)
    code, _, err = run(capsys, "boost", "--out", str(path))
    assert (code, err) == (2, "error: [Errno 5] Input/output error\n")
    assert path.read_bytes() == b""


def test_boost_prints_the_exact_helper_marginal_at_low_polarization(capsys):
    code, out, _ = run(capsys, "boost", "--eps0", "3e-5")
    assert code == 0
    assert "  eps_c: -9e-10" in out.splitlines()


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


def test_a_certified_plan_file_is_written_without_numpy_or_a_text_wrapper(capsys, tmp_path):
    # Every call into numpy's Python code or its C functions and methods, and every open().
    numpy_dir = os.path.dirname(np.__file__)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            calls.append(frame.f_code.co_name)
        elif event == "c_call":
            module = getattr(arg, "__module__", None) or type(getattr(arg, "__self__", None)).__module__
            if module.split(".")[0] == "numpy" or arg is io.open:
                calls.append(arg.__qualname__)

    out_path = tmp_path / "plan.json"
    out_path.write_text("x" * 10_000)
    argv = ["cool", "--n", "19", "--eps0", "1e-4", "--target-eps", "2.2e-4", "--mode", "both", "--recycle"]
    sys.setprofile(profile)
    try:
        code = main([*argv, "--out", str(out_path)])
    finally:
        sys.setprofile(None)
    out = capsys.readouterr().out
    assert (code, calls) == (0, [])
    assert "exact vs approx max difference: 0\n" in out
    assert out_path.read_text() == json.dumps(oracles.plan_dict(cooling.plan_rounds(19, 1e-4, 2.2e-4, recycle=True)))


def test_cool_unreachable_target_exits_3(capsys):
    code, _, err = run(capsys, "cool", "--n", "6", "--eps0", "1e-3", "--target-eps", "2.2e-3")
    assert code == 3
    assert "infeasible:" in err


_COOL_27 = ("cool", "--n", "27", "--eps0", "1e-5", "--target-eps", "3.34e-5", "--mode", "both")
# At eps0 = 1e-9 float ties merge recycled pools, and 2 of the 19 triples
# boost spins whose histories overlap, so the cluster engine replays the plan.
_COOL_27_TIES = ("cool", "--n", "27", "--eps0", "1e-9", "--target-eps", "3.34e-9", "--mode", "both")


def test_cool_exact_mode_is_bounded_by_its_cluster_not_by_n(capsys, monkeypatch):
    # 27 spins exceed the default budget of 24, but without recycling every
    # triple boosts three independent spins, and the exact replay builds no cluster.
    monkeypatch.delenv("COOLSPIN_MAX_N", raising=False)
    code, out, err = run(capsys, *_COOL_27)
    assert (code, err) == (0, "")
    assert "exact vs approx max difference: 0\n" in out


def test_cool_exact_mode_beyond_capacity_exits_4(capsys, monkeypatch):
    # Recycling merges a 12-spin cluster on this tie-merged plan: 32 KiB, over
    # a budget of 16 KiB that its cone walk (9312 bytes) fits.
    monkeypatch.setenv("COOLSPIN_MAX_N", "11")
    code, _, err = run(capsys, *_COOL_27_TIES, "--recycle")
    assert code == 4
    assert err.startswith("capacity: a 12-spin merge with the live clusters needs 32768 bytes, over the budget of 16384")


def test_cool_exact_mode_bounds_the_sum_of_its_live_clusters(capsys, monkeypatch):
    # The 12-spin merge that trips the budget of 128 KiB needs 32 KiB alone,
    # but with it the live clusters together would outgrow the budget.
    monkeypatch.setenv("COOLSPIN_MAX_N", "14")
    code, _, err = run(capsys, "cool", "--n", "243", "--eps0", "1e-11", "--target-eps", "7.59375e-11", "--recycle", "--mode", "exact")
    assert code == 4
    assert err.startswith("capacity: a 12-spin merge with the live clusters needs 131840 bytes, over the budget of 131072")


def test_cool_prints_each_rounds_pools_in_numeric_order(capsys):
    # The pools straddle 1e-4, where sorting the printed strings misorders them.
    code, out, _ = run(capsys, "cool", "--n", "81", "--eps0", "8e-5", "--target-eps", "2.6e-4", "--recycle")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "round 2: 18 boosts, input pools: 0.000119999999744 4.0000000256e-05"
    assert lines[2] == (
        "round 3: 12 boosts, input pools:"
        " 0.000179999998752 6.0000000736e-05 6.0000000352e-05 2.000000016e-05"
    )


def test_cool_reports_an_unreachable_pool_at_full_precision_when_it_rounds_to_the_target(capsys):
    code, out, err = run(capsys, "cool", "--n", "27", "--eps0", "0.99", "--target-eps", "1")
    assert (code, out) == (3, "")
    assert err == (
        "infeasible: target 1.0 is unreachable with n=27"
        " (best reachable pool sits at 0.9999999999999983)\n"
    )
    code, _, err = run(capsys, "cool", "--n", "6", "--eps0", "1e-3", "--target-eps", "2.2e-3")
    assert err.endswith("(best reachable pool sits at 0.0014999995)\n")


_COOL_1E9 = ("cool", "--n", "1e9", "--eps0", "3e-5", "--target-eps", "1e-3")


def test_cool_plans_a_billion_spins_in_approx_mode(capsys):
    code, out, err = run(capsys, *_COOL_1E9)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "simulated best (approx): spin s0 at 0.00115330037246"


def test_cool_prints_a_recycled_billion_spin_round_byte_for_byte(capsys):
    # The pool values come from the boost kernel, whose bits do not depend on BLAS.
    code, out, err = run(capsys, *_COOL_1E9, "--recycle")
    assert (code, err) == (0, "")
    assert out.splitlines()[2] == (
        "round 3: 148148148 boosts, input pools:"
        " 6.74999999342e-05 2.25000000388e-05 2.25000000186e-05 7.50000000844e-06"
    )


def test_cool_writes_a_tie_merged_recycled_plan_byte_for_byte(capsys, tmp_path):
    # At eps0 = 1e-10 float ties merge pools: this plan holds 15 tie-merged
    # index-array blocks next to 13 range blocks, and its file pins both.
    path = tmp_path / "plan.json"
    argv = ("--n", "2187", "--eps0", "1e-10", "--target-eps", "1.6915078125000002e-09", "--recycle")
    code, _, err = run(capsys, "cool", *argv, "--out", str(path))
    assert (code, err) == (0, "")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "60488d3dad2bbc3c0239da9b5c96e699cae2a371a48b6fc45ca8f8b6ec73f21b"


@pytest.mark.parametrize("extra", [["--out", "plan.json"], ["--mode", "exact"], ["--mode", "both"]])
def test_cool_refuses_to_build_a_billion_spin_triples(capsys, tmp_path, monkeypatch, extra):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *_COOL_1E9, *extra)
    if extra[0] == "--out":  # the plan file names every triple, so nothing is printed either
        assert (code, out) == (4, "")
        assert err.startswith("capacity: 1000000000 spins exceeds MAX_TRIPLE_SPINS = 14348907")
        assert not (tmp_path / "plan.json").exists()
        return
    # The planner certified the plan tie-free: exact is approx, answered from the pools.
    assert (code, err) == (0, "")
    mode = extra[1]
    assert f"simulated best ({mode}): spin s0 at 0.00115330037246" in out.splitlines()
    assert ("exact vs approx max difference: 0" in out.splitlines()) is (mode == "both")


def test_cool_answers_a_certified_recycled_plan_exactly_without_a_replay(capsys, monkeypatch):
    walks = []
    for walk in ("_replay_approx", "_replay_exact", "_replay_clusters"):
        monkeypatch.setattr(cooling, walk, walks.append)
    code, out, err = run(
        capsys, "cool", "--n", "59049", "--eps0", "1e-5", "--target-eps", "5.7e-4", "--recycle", "--mode", "exact"
    )
    assert (code, err, walks) == (0, "", [])
    assert out.splitlines()[-1] == "simulated best (exact): spin s0 at 0.000576650339507"


def test_cool_keeps_a_subnormal_polarization(capsys):
    # The kernel used to round 3/2 of the smallest subnormal to 0: exit 3, "sits at 0".
    code, out, err = run(capsys, "cool", "--n", "27", "--eps0", "5e-324", "--target-eps", "1e-323")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "simulated best (approx): spin s0 at 9.88131291682e-324"


def test_cool_still_refuses_a_tie_merged_plan_past_the_cluster_budget(capsys):
    argv = ("--n", "243", "--eps0", "1e-11", "--target-eps", "7.59375e-11", "--recycle", "--mode", "exact")
    # The replay refuses before the plan's report is printed, so stdout stays empty.
    assert run(capsys, "cool", *argv) == (
        4,
        "",
        "capacity: a 24-spin merge with the live clusters needs 134230016 bytes,"
        " over the budget of 134217728 (override with COOLSPIN_MAX_N)\n",
    )


def test_cool_running_out_of_memory_exits_4(capsys, monkeypatch):
    def allocate(plan, mode):
        raise MemoryError("Unable to allocate 32.0 GiB for an array")

    monkeypatch.setattr(cli, "simulate_plan", allocate)
    code, out, err = run(
        capsys, "cool", "--n", "9", "--eps0", "1e-3", "--target-eps", "2.2e-3", "--mode", "both",
    )
    assert code == 4
    assert out == ""  # nothing is printed before the replay has run
    assert err == "capacity: Unable to allocate 32.0 GiB for an array\n"


def test_cool_running_out_of_memory_without_a_message_says_so(capsys, monkeypatch):
    def allocate(plan, mode):
        raise MemoryError()

    monkeypatch.setattr(cli, "simulate_plan", allocate)
    code, _, err = run(capsys, "cool", "--n", "9", "--eps0", "1e-3", "--target-eps", "2.2e-3")
    assert (code, err) == (4, "capacity: out of memory\n")


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
        # Finite, but a 180-degree pulse at this pulse90_s lasts inf seconds.
        ("--pulse90-s", "1.7976931348623157e308", "pulse90_s"),
        ("--bloch-siegert-deg", "inf", "bloch_siegert_deg"),
        ("--bloch-siegert-deg", "nan", "bloch_siegert_deg"),
        # Finite, but two pulses shift the other spins' z frames to inf.
        ("--bloch-siegert-deg", "1e308", "bloch_siegert_deg"),
        # Each angle is finite, but spin a's z frame sums them to inf.
        ("--circuit", "RZ a 1e308\nRZ a 1e308\n", "RZ angles must keep spin a's z frame"),
    ],
)
def test_compile_rejects_non_finite_flags(capsys, tmp_path, flag, value, field):
    if flag == "--circuit":
        path = tmp_path / "circuit.txt"
        path.write_text(value)
        value = str(path)
    code, out, err = run(capsys, "compile", flag, value)
    assert (code, out) == (2, "")
    assert field in err and "finite" in err


def test_compile_rejects_a_system_whose_labels_are_a_string(capsys, tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({**example_system().to_dict(), "labels": "abc"}))
    code, out, err = run(capsys, "compile", "--system", str(path))
    assert (code, out) == (2, "")
    assert "labels must be a JSON array" in err


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


def test_compile_verifies_a_16_spin_boost_in_under_half_a_second(capsys, tmp_path):
    # 709 of the sequence's 818 events are 180-degree echo pulses.
    system = _coupled_system(tmp_path, 16)
    start = time.perf_counter()
    code, out, _ = run(capsys, "compile", "--system", system)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "verification: PASS" in out.splitlines()
    assert elapsed < 0.5
    code, out, _ = run(capsys, "compile", "--system", system, "--bloch-siegert-deg", "3")
    assert code == 0
    assert "verification: FAIL" in out.splitlines()


def test_compile_past_the_dense_cap_still_fails_a_wrong_sequence(capsys, tmp_path):
    code, out, _ = run(
        capsys, "compile", "--system", _coupled_system(tmp_path, 10), "--bloch-siegert-deg", "3"
    )
    assert code == 0
    assert "verification: FAIL" in out.splitlines()


@pytest.mark.parametrize("n, budget", [(20, None), (10, "9")])
def test_compile_skips_verification_above_the_verify_cap(capsys, monkeypatch, tmp_path, n, budget):
    if budget is not None:
        monkeypatch.setenv("COOLSPIN_MAX_N", budget)
    code, out, _ = run(capsys, "compile", "--system", _coupled_system(tmp_path, n))
    assert code == 0
    assert "verification: SKIPPED (system too large to verify)" in out.splitlines()


def test_compile_skips_verification_of_30_spins_within_1_gb_of_address_space(tmp_path):
    # Verification's budget check comes before the 2**30 permutation indices (8 GiB).
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))\n"
    main_call = f"from coolspin.cli import main; raise SystemExit(main(['compile', '--system', {_coupled_system(tmp_path, 30)!r}]))"
    proc = run_python("-c", limit + main_call)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "verification: SKIPPED (system too large to verify)" in proc.stdout.splitlines()


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


def test_spectrum_refuses_a_state_file_and_the_boosted_state_together(capsys, tmp_path):
    state_path = tmp_path / "post.json"
    run(capsys, "boost", "--out", str(state_path))
    code, out, err = run(capsys, "spectrum", "--state", str(state_path), "--boosted")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--state" in err and "--boosted" in err


def test_spectrum_out_file(capsys, tmp_path):
    out_path = tmp_path / "lines.csv"
    code, out, _ = run(capsys, "spectrum", "--out", str(out_path))
    assert code == 0
    assert f"wrote {out_path}" in out
    assert out_path.read_text().startswith("freq_hz,amplitude\n")


def test_spectrum_writes_a_12_spin_csv_byte_for_byte(capsys, tmp_path):
    # Float couplings give a mirrored multiplet, and the state's few distinct
    # amplitudes include a -0.0: the hash pins both text shortcuts of to_csv
    # to the bytes of one repr per float.
    n = 12
    j_hz = [[0.0 if i == k else (i * k + i + k + 1) * 13.1 / 7 - 40.3 for k in range(n)] for i in range(n)]
    system = {"labels": [f"q{i}" for i in range(n)], "j_hz": j_hz, "shift_ppm": [0.0] * n, "epsilon0": 1e-4}
    pops = [float(i % 5 - 2) for i in range(4096)]
    pops[1], pops[2049] = -0.0, 0.0
    pops[-1] -= sum(pops)
    (tmp_path / "sys.json").write_text(json.dumps(system))
    (tmp_path / "state.json").write_text(json.dumps({"n": n, "pops": pops}))
    argv = ("--system", str(tmp_path / "sys.json"), "--state", str(tmp_path / "state.json"))
    code, out, err = run(capsys, "spectrum", *argv)
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "f8cc2e1c951ebee5edbefc6750b2a333e4efa9dbb5db9be091c3fe70e546a940"


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


def test_spectrum_rejects_a_boolean_spin_count(capsys, tmp_path):
    # A one-spin system, so that "n": true read as 1 would match it.
    system = tmp_path / "one.json"
    SpinSystem(labels=["a"], j_hz=[[0.0]], shift_ppm=[0.0], epsilon0=1e-4).save(system)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": True, "pops": [0.5, -0.5]}))
    code, out, err = run(capsys, "spectrum", "--system", str(system), "--state", str(state))
    assert (code, out) == (2, "")
    assert "n must be a positive integer, got True" in err


def _three_spins(**change):
    system = {"labels": ["a", "b", "c"], "j_hz": [[0, 10, 0], [10, 0, 0], [0, 0, 0]]}
    return {**system, "shift_ppm": [0, 0, 0], "epsilon0": 1e-5, **change}


_STATE, _SYSTEM = "spectrum --state", "bound --system"
_FIVE_SPINS_AT_1_5E308 = {
    "labels": list("abcde"),
    "j_hz": [[0.0 if i == k else 1.5e308 for k in range(5)] for i in range(5)],
    "shift_ppm": [0.0] * 5,
    "epsilon0": 1e-5,
}
_BOOLEANS = [[False, True, True], [True, False, True], [True, True, False]]


def _three_spins_at(j_hz):
    """Three spins with every coupling at j_hz."""
    return _three_spins(j_hz=[[0.0 if i == k else j_hz for k in range(3)] for i in range(3)])


@pytest.mark.parametrize(
    ("command", "payload", "field"),
    [
        pytest.param(_STATE, {"n": 1, "pops": {"a": 1}}, "pops", id="pops-object"),
        pytest.param(_STATE, {"n": 1, "pops": [True, False]}, "pops", id="pops-booleans"),
        pytest.param(_STATE, {"n": 1, "pops": ["0.5", "-0.5"]}, "pops", id="pops-strings"),
        pytest.param(_STATE, {"n": 1, "pops": [True, -1]}, "pops", id="pops-boolean-among-numbers"),
        pytest.param(_STATE, 5, "a state must be a JSON object", id="state-number"),
        pytest.param(
            "spectrum --spin c --state",
            {"n": 3, "pops": [1e308, 1e308, 1, 1, 1, 1, 1, 1]},
            "pops",
            id="pops-sum-overflows-the-trace-check",
        ),
        pytest.param(
            "spectrum --spin c --state",
            {"n": 3, "pops": [1e308, -1e308, 0, 0, 0, 0, 0, 0]},
            "pops",
            id="pops-line-overflows",
        ),
        pytest.param("spectrum --system", _FIVE_SPINS_AT_1_5E308, "j_hz", id="j_hz-offsets-overflow"),
        pytest.param("compile --system", _FIVE_SPINS_AT_1_5E308, "j_hz", id="j_hz-compile-overflows"),
        # The row sums (1e308) are finite, but 2 pi J is not.
        pytest.param("compile --system", _three_spins_at(5e307), "j_hz", id="j_hz-phase-rate-overflows"),
        # A subnormal coupling's delays, up to 1/|J| each, are infinite.
        pytest.param("compile --system", _three_spins_at(1e-320), "j_hz", id="j_hz-delay-overflows"),
        pytest.param(_SYSTEM, 5, "a spin system must be a JSON object", id="system-number"),
        pytest.param(
            _SYSTEM,
            _three_spins(j_hz=[[0, "10", 0], [True, 0, 0], [0, 0, 0]]),
            "j_hz",
            id="j_hz-string-and-boolean",
        ),
        pytest.param(_SYSTEM, _three_spins(j_hz=_BOOLEANS), "j_hz", id="j_hz-booleans"),
        pytest.param(
            _SYSTEM,
            _three_spins(j_hz=[[0, True, 10], [True, 0, 10], [10, 10, 0]]),
            "j_hz",
            id="j_hz-boolean-among-numbers",
        ),
        pytest.param(_SYSTEM, _three_spins(shift_ppm=[0, None, 0]), "shift_ppm", id="shift-null"),
        pytest.param(_SYSTEM, _three_spins(j_hz=[[0, 1], [1]]), "j_hz", id="j_hz-ragged"),
        pytest.param(_SYSTEM, _three_spins(epsilon0="1e-5"), "epsilon0", id="epsilon0-string"),
        pytest.param(_SYSTEM, _three_spins(epsilon0=True), "epsilon0", id="epsilon0-boolean"),
        pytest.param(_SYSTEM, _three_spins(epsilon0=[1e-5]), "epsilon0", id="epsilon0-array"),
        pytest.param(
            "bound --spin None --system",
            _three_spins(labels=[1, None, 2]),
            "spin labels must be strings, got 1",
            id="labels-not-strings",
        ),
        pytest.param(
            _SYSTEM,
            _three_spins(labels=["a", ["b"], "c"]),
            "spin labels must be strings, got ['b']",
            id="labels-array",
        ),
    ],
)
@pytest.mark.filterwarnings("error")
def test_input_files_must_hold_json_objects_numbers_and_string_labels(
    capsys, tmp_path, command, payload, field
):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *command.split(), str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize(
    "flag, value, field",
    [
        # Each delay, up to 1/|J| = 1e308, is finite, but their sum is not.
        pytest.param("--system", _three_spins_at(1e-308), "j_hz", id="delays"),
        pytest.param("--pulse90-s", "1e307", "pulse90_s", id="pulses"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_compile_refuses_a_sequence_whose_total_duration_overflows(capsys, tmp_path, flag, value, field):
    if isinstance(value, dict):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(value))
        value = path
    code, out, err = run(capsys, "compile", flag, str(value))
    assert (code, out) == (2, "")
    assert err == f"error: {field} must keep the sequence's total duration finite, to compile\n"
    code, out, _ = run(capsys, "compile", "--pulse90-s", "1e306")
    assert code == 0
    assert "total duration (s): 3.6e+307\n" in out


@pytest.mark.filterwarnings("error")
def test_compile_refuses_a_sequence_whose_coupling_phase_overflows(capsys, tmp_path):
    # Every 1/|J| and 2 pi |J| is finite, but the delays set by the tiny
    # J01 (about 1.8e233 s) turn the pair (s1, s5) by more than a float holds.
    j_hz = [[0.0] * 6 for _ in range(6)]
    pairs = [(0, 1, 5.572575265414456e-234), (1, 2, 1.0), (1, 5, 1.0374539036469075e91), (3, 5, 1.0), (4, 5, 1.0)]
    for a, b, value in pairs:
        j_hz[a][b] = j_hz[b][a] = value
    path = tmp_path / "sys.json"
    labels = [f"s{i}" for i in range(6)]
    path.write_text(json.dumps({"labels": labels, "j_hz": j_hz, "shift_ppm": [1e308] * 6, "epsilon0": 0.5}))
    code, out, err = run(capsys, "compile", "--system", str(path), "--z-mode", "virtual")
    assert (code, out) == (2, "")
    assert err == "error: j_hz must keep every coupling's phase over the sequence's delays finite, to compile\n"
    j_hz[1][5] = j_hz[5][1] = 1.0
    path.write_text(json.dumps({"labels": labels, "j_hz": j_hz, "shift_ppm": [1e308] * 6, "epsilon0": 0.5}))
    code, out, _ = run(capsys, "compile", "--system", str(path), "--z-mode", "virtual")
    assert code == 0


# Finite numbers at the edges of the float range, magnitudes from 1e-307 to
# 1e307, and ordinary numbers: every number a generated file or flag holds.
_MAGNITUDES = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-307.0, 307.0))
_EDGES = st.one_of(
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-100.0, max_value=100.0),
    _MAGNITUDES,
)
# One kind of coupling per system, so that some systems hold no overflowing row.
_COUPLINGS = [
    st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=100.0)),
    st.one_of(st.just(0.0), _MAGNITUDES),
    st.one_of(st.just(0.0), _EDGES),
]
# Two in three polarizations lie in (0, 1); the rest may be any finite number.
_POLARIZATIONS = st.sampled_from(
    [
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e-5, 1.0 - 2**-53]),
        _EDGES,
    ]
).flatmap(lambda strategy: strategy)
_ANY_GATE = {**PERMUTATION_KINDS, **ROTATION_KINDS}
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|(?i:\b(?:nan|inf|infinity)\b)")


def _assert_finite_numbers(text):
    """Every number in the text, JSON's NaN and Infinity included, parses as finite."""
    for token in _NUMBER.findall(text):
        assert math.isfinite(float(token)), token


def _draw_system(data, directory, n):
    couplings = data.draw(st.sampled_from(_COUPLINGS), label="coupling kind")
    j_hz = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for k in range(i + 1, n):
            j_hz[i][k] = j_hz[k][i] = data.draw(couplings, label=f"J{i}{k}")
    shifts = data.draw(st.lists(_EDGES, min_size=n, max_size=n), label="shift_ppm")
    payload = {"labels": [f"s{i}" for i in range(n)], "j_hz": j_hz, "shift_ppm": shifts}
    payload["epsilon0"] = data.draw(_POLARIZATIONS, label="epsilon0")
    path = directory / "system.json"
    path.write_text(json.dumps(payload))
    return ["--system", str(path)]


def _draw_state(data, directory, n):
    values = data.draw(st.lists(st.one_of(_MAGNITUDES, _EDGES), min_size=1, max_size=8), label="pop values")
    half = [values[i % len(values)] for i in range(2 ** (n - 1))]
    pops = half + [-x for x in half]  # traceless, in deviation units
    if data.draw(st.booleans(), label="unbalanced"):
        pops[0] = data.draw(_EDGES, label="pops[0]")
    random.Random(data.draw(st.integers(0, 2**32), label="order")).shuffle(pops)
    path = directory / "state.json"
    path.write_text(json.dumps({"n": n, "pops": pops}))
    return ["--state", str(path)]


def _draw_circuit(data, directory, labels):
    n, lines = len(labels), []
    for _ in range(data.draw(st.integers(0, 6), label="gates")):
        kind = data.draw(st.sampled_from(sorted(k for k, arity in _ANY_GATE.items() if arity <= n)), label="kind")
        spins = data.draw(st.permutations(range(n)), label="spins")[: _ANY_GATE[kind]]
        angle = [repr(data.draw(_EDGES, label="angle"))] if kind in ROTATION_KINDS else []
        lines.append(" ".join([kind, *(labels[s] for s in spins), *angle]))
    path = directory / "circuit.txt"
    path.write_text("\n".join(lines) + "\n")
    return ["--circuit", str(path)]


def _maybe(data, label, flag, strategy):
    """`flag=value` for a drawn value, or nothing."""
    if not data.draw(st.booleans(), label=label):
        return []
    return [f"{flag}={data.draw(strategy, label=label)!r}"]


def _draw_command(data, directory):
    """argv for one subcommand, and the path its --out would write."""
    command = data.draw(st.sampled_from(["bound", "boost", "cool", "compile", "spectrum"]), label="command")
    out = directory / f"{command}.out"
    argv = [command]
    if command == "cool":
        argv += [f"--n={data.draw(st.integers(1, 3**6), label='n')}"]
        eps0 = data.draw(_POLARIZATIONS, label="eps0")
        target = data.draw(st.one_of(st.floats(1.01, 3.0).map(lambda x: x * eps0), _POLARIZATIONS), label="target")
        argv += [f"--eps0={eps0!r}", f"--target-eps={target!r}"]
        argv += ["--recycle"] * data.draw(st.booleans(), label="recycle")
        argv += [f"--mode={data.draw(st.sampled_from(['exact', 'approx', 'both']), label='mode')}"]
        return argv + ["--out", str(out)] * data.draw(st.booleans(), label="out"), out
    n, labels = 3, ["a", "b", "c"]  # the bundled system
    if data.draw(st.booleans(), label="custom system"):
        n = data.draw(st.integers(1, {"boost": 4, "compile": 6}.get(command, 10)), label="spins")
        argv += _draw_system(data, directory, n)
        labels = [f"s{i}" for i in range(n)]
    if command in ("bound", "spectrum") and data.draw(st.booleans(), label="spin flag"):
        argv += ["--spin", data.draw(st.sampled_from(labels), label="spin")]
    if command == "bound":
        argv += _maybe(data, "eps0", "--eps0", _POLARIZATIONS)
        if data.draw(st.booleans(), label="n flag"):
            argv += [data.draw(st.sampled_from(["--n=1e308", "--n=1e9", "--n=1", "--n=5"]), label="n")]
    elif command == "boost":
        argv += _maybe(data, "eps0", "--eps0", _POLARIZATIONS)
    elif command == "compile":
        argv += _draw_circuit(data, directory, labels) if data.draw(st.booleans(), label="circuit") else []
        argv += [f"--z-mode={data.draw(st.sampled_from(['virtual', 'pulsed']), label='z mode')}"]
        argv += _maybe(data, "bloch-siegert", "--bloch-siegert-deg", _EDGES)
        argv += _maybe(data, "pulse90", "--pulse90-s", _EDGES)
    elif data.draw(st.booleans(), label="state"):
        argv += _draw_state(data, directory, data.draw(st.one_of(st.just(n), st.integers(1, 10)), label="state spins"))
    elif data.draw(st.booleans(), label="boosted"):
        argv += ["--boosted"]
    if command != "bound" and data.draw(st.booleans(), label="out"):
        argv += ["--out", str(out)]
    return argv, out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
@pytest.mark.filterwarnings("error")
def test_every_command_exits_with_a_known_code_and_prints_only_finite_numbers(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv, out = _draw_command(data, Path(tmp))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 2, 3, 4), stderr.getvalue()
        # A "wrote" line holds the path of the artifact, which is read instead.
        printed = [line for line in stdout.getvalue().splitlines() if not line.startswith("wrote ")]
        _assert_finite_numbers("\n".join(printed))
        if out.exists():
            _assert_finite_numbers(out.read_text())


def run_python(*argv, **env_vars):
    # Run the same package the tests import, installed or not, in a fresh interpreter.
    src = str(Path(coolspin.__file__).parents[1])
    env = {**os.environ, **env_vars}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def run_module(*argv, **env_vars):
    return run_python("-m", "coolspin", *argv, **env_vars)


def test_running_as_a_module_works():
    proc = run_module("bound")
    assert proc.returncode == 0
    assert "a_max: 1.5" in proc.stdout


def test_the_cli_imports_and_runs_without_scipy():
    blocked = "import sys; sys.modules['scipy'] = None\nfrom coolspin.cli import main\n"
    proc = run_python("-c", blocked + "raise SystemExit(main(['boost']))")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "  eps_c: -9e-10\n" in proc.stdout
    proc = run_python("-c", "import sys, coolspin.cli; print('scipy' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_the_cli_imports_and_runs_a_documented_command_without_argparse():
    proc = run_python("-c", "import sys, coolspin.cli; sys.exit('argparse' in sys.modules)")
    assert (proc.returncode, proc.stderr) == (0, "")
    command = "from coolspin.cli import main; main(['cool', '--n', '9', '--eps0', '1e-3', '--target-eps', '2.2e-3'])"
    proc = run_python("-c", f"import sys; {command}; sys.exit('argparse' in sys.modules)")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "simulated best (approx): spin s0 at " in proc.stdout


def test_every_file_is_read_and_written_as_utf8_whatever_the_locale(tmp_path):
    # Under warn_default_encoding, every read or write that would decode or
    # encode with the locale's encoding raises EncodingWarning, made an error.
    system, state = tmp_path / "system.json", tmp_path / "state.json"
    example_system().save(system)
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("# the boost on (a, b, c) \u2192 a colder\nCNOT b c\nNOT c\nFREDKIN c a b\n", encoding="utf-8")
    cool = ["cool", "--n", "19", "--eps0", "1e-4", "--target-eps", "2.2e-4", "--mode", "both", "--recycle"]
    commands = [
        ["compile", "--system", str(system), "--circuit", str(circuit), "--out", str(tmp_path / "seq.json")],
        ["boost", "--out", str(state)],
        ["spectrum", "--system", str(system), "--state", str(state)],
        [*cool, "--out", str(tmp_path / "plan.json")],
        ["bound", "--system", str(system)],
    ]
    for argv in commands:
        proc = run_python("-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "coolspin", *argv)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
    assert "verification: PASS\n" in run_module(*commands[0]).stdout


@pytest.mark.parametrize(
    "command, name, data, message",
    [
        ("bound --system", "system.json", b"\xef\xbb\xbf{}", "Unexpected UTF-8 BOM"),
        ("spectrum --state", "state.json", '{"n": 1, "pops": [0.5, -0.5]}'.encode("utf-16"), "'utf-8' codec can't decode"),
        ("compile --circuit", "circuit.txt", "NOT a # \xe9".encode("latin-1"), "'utf-8' codec can't decode"),
        # Said "unknown gate kind '\ufeffCNOT'", naming an invisible character.
        ("compile --circuit", "circuit.txt", b"\xef\xbb\xbfCNOT b c\nNOT c\n", "line 1: unexpected UTF-8 BOM\n"),
    ],
    ids=["system-with-a-bom", "utf16-state", "latin1-circuit", "circuit-with-a-bom"],
)
def test_a_file_that_is_not_plain_utf8_is_bad_input(capsys, tmp_path, command, name, data, message):
    path = tmp_path / name
    path.write_bytes(data)
    code, out, err = run(capsys, *command.split(), str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "command, data, message",
    [
        ("bound --system", b'{"labels": ["a"],}', "Expecting property name enclosed in double quotes: line 1 column 18 (char 17)"),
        ("spectrum --system GOOD --state", b'{"n": 3, "pops": [1, 2,]}', "Expecting value: line 1 column 24 (char 23)"),
        ("compile --system", b'{"labels": ["a", "b", "c"]', "Expecting ',' delimiter: line 1 column 27 (char 26)"),
        ("compile --circuit", b"NOT a\n\xe9", "'utf-8' codec can't decode byte 0xe9 in position 6: unexpected end of data"),
    ],
    ids=["bound-system", "spectrum-state", "compile-system", "compile-circuit"],
)
def test_a_malformed_input_file_is_named_after_the_decoders_message(capsys, tmp_path, command, data, message):
    # The spectrum is given a good system file too: the message must say which file is bad.
    good, bad = tmp_path / "sys-3.json", tmp_path / "bad.input"
    example_system().save(good)
    bad.write_bytes(data)
    code, out, err = run(capsys, *command.replace("GOOD", str(good)).split(), str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {message} in file {str(bad)!r}\n"


def test_a_malformed_spin_budget_is_bad_input_not_an_import_failure():
    # The package builds small Iz tables at import; the budget is read later.
    proc = run_module("bound", COOLSPIN_MAX_N="abc")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: COOLSPIN_MAX_N must be a positive integer")
