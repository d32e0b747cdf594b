"""Planted faults: each row breaks the package by monkeypatch, with no source
edit, and names the exact set of ``verify`` checks that must then fail.

A check that no planted fault can make fail shows nothing, so every fault
is aimed at the code a check claims to test, and a row that fails fewer
checks, or others, means a check lost its teeth or a new one gained some.
"""

from __future__ import annotations

import pytest

from wreathdim import groups, run_suite


def _meet_one_long(monkeypatch):
    """``_meet`` returns one more than the length it finds."""
    meet = groups._meet

    def faulty(*args, **kwargs):
        length = meet(*args, **kwargs)
        return None if length is None else length + 1

    monkeypatch.setattr(groups, "_meet", faulty)


def _meet_one_sided(monkeypatch):
    """``_meet`` returns the depth of the half that stepped last, the one
    that found the shared state, and drops the other half's depth."""
    meet, step = groups._meet, groups._BallSearch.step
    stepped: list[groups._BallSearch] = []

    def recording_step(search, budget):
        stepped.append(search)
        return step(search, budget)

    def faulty(*args, **kwargs):
        stepped.clear()
        length = meet(*args, **kwargs)
        return None if length is None else stepped[-1].reach

    monkeypatch.setattr(groups._BallSearch, "step", recording_step)
    monkeypatch.setattr(groups, "_meet", faulty)


# (fault, the checks that fail under it)
FAULTS = {
    "meet-one-long": (
        _meet_one_long,
        {
            "kernel-cube-certificate",
            "pullback-cover-control",
            "growth-linear-bound",
            "length-oracle-cross-check",
        },
    ),
    "meet-one-sided": (
        _meet_one_sided,
        {
            "bulb-length-lower-bound",
            "kernel-cube-certificate",
            "growth-linear-bound",
            "length-oracle-cross-check",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_a_planted_fault_fails_exactly_its_checks(name, monkeypatch):
    plant, expected = FAULTS[name]
    plant(monkeypatch)
    failed = {result.name for result in run_suite() if not result.passed}
    assert failed == expected
