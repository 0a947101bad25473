"""Acceptance gate: every criterion of the reproduction suite, one test per
criterion, printing one pass/fail line each (visible with pytest -s)."""

import pytest

from gasymp import suite

_ALL = {entry[0]: entry for entry in suite.CRITERIA}

BUDGET_SECONDS = {
    "1": 1, "2": 5, "3": 60, "4": 30, "5": 60, "6": 60, "7": 120,
    "8": 30, "9": 10, "10": 120, "11": 30, "12": 120, "13": 300,
}


@pytest.mark.parametrize("cid", sorted(_ALL, key=int))
def test_criterion(cid):
    result = suite._run_one(_ALL[cid])
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {cid}: {result.title} ({result.elapsed:.2f}s)")
    if not result.passed:
        for line in result.details:
            print("   ", line)
    assert result.passed, f"criterion {cid} failed: {result.details[-3:]}"
    assert result.elapsed < BUDGET_SECONDS[cid], (
        f"criterion {cid} exceeded its {BUDGET_SECONDS[cid]}s budget: {result.elapsed:.1f}s")


def test_property_criterion_runs_every_suite(monkeypatch):
    from gasymp import properties

    monkeypatch.setattr(suite, "_PROPERTY_CASES", 2)
    details = []
    suite.crit_property_suites(details)
    assert [line.split(": ")[1] for line in details] == list(properties.SUITES)
