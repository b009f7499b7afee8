"""Verification runner: registry, reports, and the fast suites."""

import pytest

from helpers import traced_peak
from red.errors import ConfigError
from red.verify import (
    SUITES, Check, SuiteReport, below, above, run_suite, suite_gdecomp, suite_moments, suite_names,
)


def test_unknown_suite_lists_available():
    with pytest.raises(ConfigError) as err:
        suite_names("nonexistent")
    [(pointer, message)] = err.value.violations
    assert pointer == "suite"
    assert "'nonexistent'" in message
    assert "madelung" in message
    assert message.endswith(", all")


def test_registry_order_is_stable():
    assert list(SUITES) == [
        "moments", "mcfp", "gdecomp", "bestmatch", "boostcov",
        "madelung", "conservation", "constraint", "entropyrate", "spreading",
    ]


def test_check_directions():
    assert below("x", 0.5, 1.0).passed
    assert not below("x", 2.0, 1.0).passed
    assert above("r", 4.0, 3.0).passed
    assert not above("r", 2.0, 3.0).passed


def test_report_shape_and_lines():
    report = SuiteReport("demo", (below("a", 0.0, 1.0), above("b", 5.0, 3.0)), 0.25)
    assert report.passed
    payload = report.as_dict()
    assert payload["suite"] == "demo"
    assert payload["pass"] is True
    assert payload["checks"][0] == {
        "name": "a", "measured": 0.0, "tolerance": 1.0,
        "direction": "below", "pass": True,
    }
    lines = report.lines()
    assert lines[0].startswith("suite demo: PASS")
    assert any("<=" in line for line in lines)
    assert any(">=" in line for line in lines)


def test_failed_check_fails_report():
    report = SuiteReport("demo", (below("a", 2.0, 1.0),), 0.1)
    assert not report.passed
    assert "FAIL" in report.lines()[0]


def test_suite_with_budget_appends_runtime_row():
    report = run_suite("bestmatch")
    assert report.passed
    assert report.checks[-1].name == "runtime_seconds"
    assert report.checks[-1].tolerance == 10.0


def test_suite_without_budget_has_no_runtime_row():
    report = run_suite("boostcov")
    assert report.passed
    assert all(check.name != "runtime_seconds" for check in report.checks)


def test_suite_names_select_one_suite_or_all():
    assert suite_names("spreading") == ["spreading"]
    assert suite_names("all") == list(SUITES)


@pytest.mark.parametrize("name", ["boostcov", "spreading", "entropyrate", "constraint"])
def test_fast_suites_pass(name):
    report = run_suite(name)
    assert report.passed, "\n".join(report.lines())


def test_gdecomp_holds_few_of_its_grids():
    # one 64^3 grid is 2 MiB: drawing the cells before the drift potential exists,
    # gathering one axis's gradient at a time, a zero phase that holds no grid and a
    # dead-tail blend on its band alone keep the suite at 9.6 MiB traced
    suite_gdecomp()  # the first call also allocates what lives on past it
    peak = traced_peak(suite_gdecomp)
    assert peak <= 10.5 * 2 ** 20, peak / 2 ** 20


def test_moments_holds_few_of_its_walker_arrays():
    # one (100,000, 2) walker array is 1.5 MiB: dropping the start, before and after
    # arrays once read and folding the displacements in one buffer keep it at 6.4 MiB
    suite_moments()
    peak = traced_peak(suite_moments)
    assert peak <= 7.5 * 2 ** 20, peak / 2 ** 20
