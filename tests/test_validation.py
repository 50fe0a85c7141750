"""The acceptance-check harness: runtime budgets and progress reporting."""

import time

from pilotopt import validation
from pilotopt.validation import CheckResult, _finish, run_all_checks


def test_a_check_over_its_budget_fails():
    # Started two seconds ago against a one-second budget.
    result = _finish("stub check", 1.0, time.perf_counter() - 2.0, True, {"value": 1})
    assert not result.passed
    assert result.runtime >= 2.0
    assert result.details == {"value": 1, "runtime_exceeded": True}


def test_a_check_within_its_budget_keeps_its_verdict():
    for ok in (True, False):
        result = _finish("stub check", 60.0, time.perf_counter(), ok, {})
        assert result.passed is ok and result.details == {}


def test_progress_sees_every_check_once_in_order(monkeypatch):
    def stub(name, passed):
        return lambda: CheckResult(name=name, passed=passed, runtime=0.0, budget_s=None)

    checks = (stub("first", True), stub("second", False), stub("third", True))
    monkeypatch.setattr(validation, "ALL_CHECKS", checks)
    seen = []
    results = run_all_checks(progress=seen.append)
    assert seen == results
    assert [r.name for r in results] == ["first", "second", "third"]
    assert [r.passed for r in results] == [True, False, True]
