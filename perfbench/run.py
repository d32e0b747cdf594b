"""Benchmark for wreathdim: one workload per process, one client, passes back to back.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it reports the end-to-end metrics ``setup_s``,
``pass_cost`` and ``peak_rss_mib``; with ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics of ``tracing.py`` plus
``trace.overhead_frac``.  Every output is checked.  The last line of
standard output is the JSON result; the line before it is the run record.
The exit code is 0 only when every operation succeeded and was correct.
See README.md in this directory for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracing import LAYER_UNITS, Tracer
from workloads import WORKLOADS, PassResult

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# temporary ball stores live here, inside the checkout
WORKDIR = ROOT / ".perfbench-tmp"

# setup_s is the median of at least SETUP_REPEATS set-ups, and of more while
# they add up to less than SETUP_BUDGET_S, up to SETUP_MAX_REPEATS
SETUP_REPEATS = 3
SETUP_BUDGET_S = 2.0
SETUP_MAX_REPEATS = 30
MIN_PASSES = 3  # untraced passes in a --trace 0 run, at least
MIN_TRACE_PASSES = 2  # untraced and traced passes each in a --trace 1 run, at least


def import_fresh():
    """Import wreathdim from ``src/`` anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "wreathdim" or n.startswith("wreathdim.")]:
        del sys.modules[name]
    wd = importlib.import_module("wreathdim")
    if not Path(wd.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"wreathdim was imported from {wd.__file__}, not from {SRC}")
    return wd


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> tuple[dict, dict]:
    """Set up and measure one workload; return (result, run record)."""
    factory = WORKLOADS[workload]
    setup_times: list[float] = []
    while len(setup_times) < (1 if trace else SETUP_MAX_REPEATS):
        bench = None  # let the previous set-up's tables go before building anew
        gc.collect()
        start = time.perf_counter()
        wd = import_fresh()
        bench = factory(wd, seed, toy, WORKDIR)
        setup_times.append(time.perf_counter() - start)
        if len(setup_times) >= SETUP_REPEATS and sum(setup_times) >= SETUP_BUDGET_S:
            break

    tracer = Tracer()
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    walls: list[float] = []  # each pass with its checks
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()  # every pass starts from the same heap, whatever the last one left
        began = time.perf_counter()
        res = PassResult()
        if trace and len(traced) < len(untraced):
            tracer.install(wd)
            try:
                bench.run_pass(res)
            finally:
                tracer.uninstall()
            traced.append(res)
        else:
            bench.run_pass(res)
            untraced.append(res)
        walls.append(time.perf_counter() - began)
        if trace:
            enough = min(len(untraced), len(traced)) >= MIN_TRACE_PASSES
        else:
            enough = len(untraced) >= MIN_PASSES
        # stop before a pass that would likely end past the deadline
        if enough and time.perf_counter() + statistics.median(walls) > deadline:
            break
    instances = bench.instances
    bench = None
    if WORKDIR.is_dir():
        shutil.rmtree(WORKDIR)

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    pass_cost = statistics.median(p.cost for p in untraced)
    if trace:
        values = tracer.layer_metrics(len(traced))
        units = dict(LAYER_UNITS)
        for name in wd.CHECKS:
            key = f"suite.{name}.s"
            values[key] = statistics.median(p.op_seconds.get(name, 0.0) for p in untraced)
            units[key] = "s"
        values["trace.overhead_frac"] = statistics.median(p.cost for p in traced) / pass_cost - 1
        units["trace.overhead_frac"] = "ratio"
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_cost": pass_cost,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "pass_cost": "ref", "peak_rss_mib": "MiB"}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "instances": instances,
        "setup_s": setup_times,
        "pass_s": {"value": statistics.median(p.seconds for p in untraced), "unit": "s"},
        "reference_s": {"value": statistics.median(r for p in untraced for r in p.reference_seconds), "unit": "s"},
        "untraced_pass_s": [p.seconds for p in untraced],
        "untraced_pass_cost": [p.cost for p in untraced],
        "traced_pass_s": [p.seconds for p in traced],
        "traced_pass_cost": [p.cost for p in traced],
        "store_bytes_written_per_pass": untraced[0].store_bytes_written,
        "store_bytes_read_per_pass": untraced[0].store_bytes_read,
        "failed_frac": {"value": len(failures) / attempted, "unit": "ratio"},
        "failures": failures[:20],
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "wreathdim" / "__init__.py").is_file():
        print(f"perfbench: no wreathdim sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in record["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
