"""Verification runner: registry, reports, and the fast suites."""

import pytest

from helpers import traced_peak
from red.errors import UnknownSuiteError
from red.verify import SUITES, Check, SuiteReport, below, above, run_suite, run_suites, suite_gdecomp


def test_unknown_suite_lists_available():
    with pytest.raises(UnknownSuiteError) as err:
        run_suite("nonexistent")
    assert err.value.name == "nonexistent"
    assert "madelung" in err.value.available
    assert "all" in err.value.available


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


def test_run_suites_all_returns_one_report_per_suite():
    names = [report.suite for report in run_suites("spreading")]
    assert names == ["spreading"]


@pytest.mark.parametrize("name", ["boostcov", "spreading", "entropyrate", "constraint"])
def test_fast_suites_pass(name):
    report = run_suite(name)
    assert report.passed, "\n".join(report.lines())


def test_gdecomp_holds_few_of_its_grids():
    # one 64^3 grid is 2 MiB: drawing the cells before the drift potential exists and
    # gathering one axis's gradient at a time keeps the suite at 11.6 MiB traced
    suite_gdecomp()  # the first call also allocates what lives on past it
    peak = traced_peak(suite_gdecomp)
    assert peak <= 13 * 2 ** 20, peak / 2 ** 20
