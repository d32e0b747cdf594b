"""The built-in verification suite: registry, selection, and failure wrapping."""

from __future__ import annotations

import gc
import weakref

import pytest

from wreathdim import CHECKS, ConfigError, LengthOracle, default_setup, parse_config, run_suite
from wreathdim import suite as suite_module
from wreathdim.suite import CheckResult

EXPECTED_CHECKS = [
    "bulb-length-lower-bound",
    "bulb-word-bound",
    "word-bulb-decomposition",
    "kernel-component-control",
    "kernel-cube-certificate",
    "lattice-witness-exhaustive",
    "kernel-closure-cosets",
    "pullback-cover-control",
    "growth-linear-bound",
    "length-oracle-cross-check",
]


def test_registry_names_frozen():
    assert list(CHECKS) == EXPECTED_CHECKS


def test_run_suite_subset_selection():
    results = run_suite(checks=["bulb-word-bound", "growth-linear-bound"])
    assert [r.name for r in results] == ["bulb-word-bound", "growth-linear-bound"]
    assert all(isinstance(r, CheckResult) for r in results)
    assert all(r.passed for r in results)
    assert all(r.seconds >= 0 for r in results)


def test_run_suite_rejects_unknown_check():
    with pytest.raises(ConfigError, match="no-such"):
        run_suite(checks=["no-such-check"])


def test_run_suite_takes_its_instances_from_the_setup():
    setup = default_setup()
    (result,) = run_suite(setup, checks=["kernel-cube-certificate"])
    assert result.passed
    del setup.wreaths["W2"]
    with pytest.raises(ConfigError, match="the suite needs 'W2'"):
        run_suite(setup, checks=["kernel-cube-certificate"])
    with pytest.raises(ConfigError, match="the suite needs 'Z'"):
        run_suite(parse_config("[group A]\nkind = integers\n"))


def test_check_results_carry_details():
    (result,) = run_suite(checks=["bulb-word-bound"])
    assert result.details["products"] == 127
    assert isinstance(result.details["max_letters"], int)


def test_a_pass_keeps_no_suite_or_oracle_alive(monkeypatch):
    # a memo that outlives its pass would hold the suite and its oracles
    refs = []

    class Watched(suite_module._Suite):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            oracles = [v for v in vars(self).values() if isinstance(v, LengthOracle)]
            refs.extend(weakref.ref(x) for x in [self, *oracles])

    monkeypatch.setattr(suite_module, "_Suite", Watched)
    assert all(result.passed for result in run_suite())
    gc.collect()
    assert len(refs) == 6
    assert [ref() for ref in refs] == [None] * 6
