"""Shared fixtures plus a terminal summary for the acceptance suite.

The fine-step affine corner runs of acceptance criteria 1 and 2 are
built once per test run; the cone-walk oracles in ``test_flow.py`` read
their exit events.  Tests marked ``@pytest.mark.acceptance(num, name)``
are aggregated per criterion number and reported as one PASS/FAIL line
each at the end of the run.
"""

import time

import numpy as np
import pytest

from subfinsler import (
    CornerNorm,
    affine_line_group,
    integrate_smooth,
    subgroup_trajectory,
)

_results: dict[int, dict] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, name): test belonging to a numbered ship criterion")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is not None and report.when == "call":
        num, name = marker.args
        entry = _results.setdefault(int(num), {"name": name, "ok": True})
        if not report.passed:
            entry["ok"] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        entry = _results[num]
        verdict = "PASS" if entry["ok"] else "FAIL"
        terminalreporter.write_line(
            "criterion %2d  %-44s %s" % (num, entry["name"], verdict))


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture(scope="session")
def affine_runs():
    t0 = time.perf_counter()
    aff = affine_line_group()
    norm = CornerNorm()
    step = 1e-4
    t_end = 2.2
    half = integrate_smooth(aff, norm, [0.5, 1.0], t_end, step)
    third = integrate_smooth(aff, norm, [1.0 / 3.0, 1.0], t_end, step)
    vertical = subgroup_trajectory(aff, norm, [0.5, 1.0], [0.0, 1.0],
                                   t_end, step)
    return {"half": half, "third": third, "vertical": vertical,
            "build_seconds": time.perf_counter() - t0}
