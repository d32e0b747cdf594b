"""Planted faults: each row breaks the package by monkeypatch, with no source
edit, and names the exact set of ``verify`` checks that must then fail.

A check that no planted fault can make fail shows nothing, so every fault
is aimed at the code a check claims to test, and a row that fails fewer
checks, or others, means a check lost its teeth or a new one gained some.
"""

from __future__ import annotations

import pytest

from wreathdim import groups, run_suite
from wreathdim import suite as suite_module


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


def _own_letter_step_swapped(monkeypatch):
    """``evaluate_word`` takes the step of the last own letter for the one
    before it and the other way round: the id table, which recognises the
    context's own letter objects, holds their steps swapped (on L2, the
    cursor moves t and t^-1)."""
    letter_steps = groups.MarkedGroup._letter_steps

    def faulty(ctx):
        own, by_value = letter_steps(ctx)
        letters = ctx.symmetric_generators()
        swapped = dict(own)
        a, b = id(letters[-2]), id(letters[-1])
        swapped[a], swapped[b] = (letters[-2], own[b][1]), (letters[-1], own[a][1])
        return swapped, by_value

    monkeypatch.setattr(groups.MarkedGroup, "_letter_steps", faulty)


def _bulb_at_the_previous_prefix(monkeypatch):
    """``bulb_decompose`` merges the first lamp letter that follows a cursor
    letter at the prefix before that cursor letter."""
    decompose = suite_module.bulb_decompose

    def faulty(ctx, letters):
        word = list(letters)
        for i in range(1, len(word)):
            if word[i].lamps and not word[i - 1].lamps:
                word[i - 1], word[i] = word[i], word[i - 1]
                break
        return decompose(ctx, word)

    monkeypatch.setattr(suite_module, "bulb_decompose", faulty)


# (fault, the checks that fail under it)
FAULTS = {
    "own-letter-step-swapped": (
        _own_letter_step_swapped,
        {"bulb-word-bound", "word-bulb-decomposition"},
    ),
    "bulb-at-the-previous-prefix": (_bulb_at_the_previous_prefix, {"word-bulb-decomposition"}),
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
