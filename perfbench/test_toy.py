"""Toy-size self-test of the benchmark.

Runs every workload's code path at toy size (L2 at r=6, the lattice at
(2,1,2), one suite check) with tracing off and on, and asserts that every
metric BENCHMARK.json names is emitted with its unit.  Run from the root of
a source checkout:

    python3 -m pytest -q perfbench/test_toy.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(bench.SRC))
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_toy_run_emits_every_metric_with_its_unit(workload, trace):
    result, record = bench.run(workload, seed=7, seconds=0.01, trace=bool(trace), toy=True)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["value"] == metric["value"]
    assert json.loads(json.dumps(result)) == result
    assert record["seed"] == 7 and record["instances"]
    assert record["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in declared)


def test_self_times_partition_the_traced_time():
    wd = bench.import_fresh()
    L2 = wd.default_setup().wreaths["L2"]
    original = wd.covers.r_components
    tracer = Tracer()
    tracer.install(wd)
    try:
        assert wd.suite.r_components is not original
        start = perf_counter()
        window = wd.kernel_window(L2, 6)
        view = wd.GroupWindowView(L2, window)
        wd.component_diameters(view, wd.cover_of([window]), 2)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    assert wd.suite.r_components is original and wd.cubes.r_components is original
    stats = tracer.stats
    self_total = sum(v for k, v in stats.items() if k.endswith(".s"))
    assert self_total == pytest.approx(tracer.root_seconds)
    assert tracer.root_seconds <= wall
    assert stats["covers.component_diameters.calls"] == 1
    assert stats["covers.r_components.calls"] == 1
    assert stats["groups.ball.calls"] >= 2  # the window, then the oracle's 2-ball
    assert stats["covers.component_diameters.pairs"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "growth", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
