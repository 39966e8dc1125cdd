"""Shared pytest plumbing: a one-line-per-criterion acceptance summary."""
import re
import sys
import warnings

import pytest

CRITERIA = {
    1: "polarization-transfer bound",
    2: "boosted-state transformation",
    3: "exact boost marginals",
    4: "readout spectra",
    5: "compiled pulse sequence",
    6: "entropy bound",
    7: "gate-count scaling",
    8: "conservation under random circuits",
}

_NODE_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_outcomes: dict[int, str] = {}


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    # On a failed example, hypothesis's report imports its patch writer, and
    # with it libcst, whose import raises a DeprecationWarning. Under the
    # suite's error filters that stops pytest with INTERNALERROR before the
    # failure is shown, so the writer is imported here first, warning ignored.
    if call.excinfo is not None and "hypothesis.extra._patching" not in sys.modules:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:  # libcst is optional; hypothesis then writes no patch
                pass
    yield


def pytest_runtest_logreport(report):
    match = _NODE_RE.search(report.nodeid)
    if match is None:
        return
    number = int(match.group(1))
    if report.when == "call":
        _outcomes[number] = report.outcome
    elif report.outcome != "passed":
        # Setup or teardown itself broke; count that as a failure.
        _outcomes.setdefault(number, report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERIA):
        outcome = _outcomes.get(number)
        if outcome is None:
            status = "NOT RUN"
        elif outcome == "passed":
            status = "PASS"
        elif outcome == "skipped":
            status = "SKIPPED"
        else:
            status = "FAIL"
        terminalreporter.write_line(f"criterion {number} ({CRITERIA[number]}): {status}")
