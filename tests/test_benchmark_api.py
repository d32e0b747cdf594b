"""What the frozen benchmark in ``perfbench/`` reads of the package, pinned by name and signature.

The benchmark imports ``wreathdim`` from ``src/`` and calls, wraps or
compares the names below (ROADMAP item 1(c)).  Each call shape it uses must
bind to the current signature, and each attribute it patches must be
defined on the class it patches.  Nothing here runs the benchmark.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import wreathdim as wd
from wreathdim import covers, cubes, suite

# name -> (args, kwargs) of each call the benchmark makes
CALLS = {
    "run_suite": [((None,), {"checks": ()})],
    "default_setup": [((), {})],
    "ball": [(("ctx", 3), {}), (("ctx", 3), {"store": None})],
    "l1": [(((0, 0), (1, 1)), {})],
    "CyclicGroup": [((3,), {})],
    "IntegerGroup": [((), {})],
    "WreathContext": [(("fiber", "base"), {})],
    "BallStore": [(("directory",), {})],
    "BallRecord": [((), {"spec_hash": "", "radius": 1, "encodings": (), "lengths": ()})],
    "exhaustive_lattice_search": [((2, 2, 2), {"workers": 1})],
    "sampled_lattice_search": [((2, 3, 2, 500), {"seed": 1})],
    "growth_lower_bound_certificate": [(("W2", 2, 3), {"seed": 1})],
    "word_length": [(("ctx", "g"), {"budget": 10})],
    "kernel_window": [(("ctx", 6), {})],
    "bulb_word": [(("ctx", "structure", "w"), {})],
    "r_components": [(("view", None, 2), {})],
    "component_diameters": [(("view", "cover", 2), {})],
    "pullback_cover": [(("view", "sub_view", "sub_cover", 2), {})],
    "coset_cover": [(("ctx", "window", 2), {"oracle": None})],
    "GroupWindowView": [(("ctx", "window"), {})],
    "cover_of": [((["window"],), {})],
}

# class -> {method: (args, kwargs) after self}, each defined on the class itself,
# which is where the tracer patches it
METHODS = {
    "LengthOracle": {"ball": ((3,), {}), "length": (("g",), {}), "length_at_most": (("g", 2), {})},
    "WreathContext": {"multiply": (("x", "y"), {})},
    "BallStore": {"load": (("spec_hash", 3), {}), "save": (("record",), {})},
}

# dataclass -> the fields the benchmark reads
FIELDS = {
    "CheckResult": {"name", "passed", "details", "seconds"},
    "KernelCubeCertificate": {"kcube", "growth_at_r", "pair_evidence"},
    "KernelCube": {"cube"},
    "RCube": {"n", "k"},
    "BallRecord": {"spec_hash", "radius", "encodings", "lengths"},
    "BallTable": {"elements", "lengths"},
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_each_call_the_benchmark_makes_binds(name):
    signature = inspect.signature(getattr(wd, name))
    for args, kwargs in CALLS[name]:
        signature.bind(*args, **kwargs)


@pytest.mark.parametrize("owner", sorted(METHODS))
def test_each_method_the_tracer_patches_is_defined_on_its_class(owner):
    cls = getattr(wd, owner)
    for attr, (args, kwargs) in METHODS[owner].items():
        assert inspect.isfunction(cls.__dict__[attr])
        inspect.signature(cls.__dict__[attr]).bind("self", *args, **kwargs)


def test_ball_record_from_bytes_is_a_classmethod_of_one_argument():
    assert isinstance(wd.BallRecord.__dict__["from_bytes"], classmethod)
    inspect.signature(wd.BallRecord.from_bytes).bind(b"")


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_each_result_carries_the_fields_the_benchmark_reads(name):
    cls = getattr(wd, name, None) or getattr(cubes, name)
    assert FIELDS[name] <= {f.name for f in dataclasses.fields(cls)}


def test_the_modules_resolve_the_names_the_tracer_rebinds():
    # the tracer rebinds r_components wherever a module resolves it, suite included
    assert suite.r_components is covers.r_components is wd.r_components
    assert list(wd.CHECKS) == [
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
