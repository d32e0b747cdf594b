"""The benchmark's four workloads: what one pass runs and how it is checked.

Every instance is fixed except the sampled lattice codes and the
certificate pair sample, which take the workload seed: the frozen values of
the fixed instances are the correctness check.  Constructing a workload is
its set-up; ``run_pass`` runs one pass of operations back to back in this
process, timing each operation and checking its output outside the timing.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from hostspeed import reference_seconds

# (instance, radius r, elements of the r-ball, elements of the (r-2)-ball)
BALLS_FULL = (
    ("L2", 19, 85806, 31762),  # packed order-2 lamps over Z
    ("C3wrZ", 14, 90877, 21697),  # general-fiber lamp space
    ("W2", 9, 13370, 1732),  # packed lamps over Z^2
    ("F2", 10, 39365, 4373),  # generic Cayley-graph search
)
BALLS_TOY = (("L2", 6, 84, 22),)

# ((n, k, parts), (assignments, hypothesis count, witness count))
SWEEPS_FULL = (((2, 2, 2), (19683, 1023, 1023)), ((3, 1, 2), (6561, 511, 511)))
SWEEPS_TOY = (((2, 1, 2), (81, 31, 31)),)
# ((n, k, parts), samples)
SAMPLED_FULL = ((2, 3, 2), 500)
SAMPLED_TOY = ((2, 1, 2), 20)
# (n, r, k, growth(r)) of W2 kernel-cube certificates, k = growth(r) // n
CERTS_FULL = ((1, 3, 13, 13), (2, 3, 6, 13), (3, 3, 4, 13), (4, 3, 3, 13), (2, 4, 12, 25))
CERTS_TOY = ((1, 2, 5, 5),)

# check 8 of the suite must report this predicted control value
PULLBACK_CHECK = "pullback-cover-control"
PULLBACK_PREDICTED = "2314"
CHECKS_TOY = ("kernel-cube-certificate",)
# the time of run_suite() outside its checks, as an operation of a verify pass
SUITE_REST = "run_suite outside checks"


@dataclass
class PassResult:
    """Timings, operation counts and failures of one pass."""

    seconds: float = 0.0  # summed wall time of the timed operations
    op_seconds: dict[str, float] = field(default_factory=dict)  # the same time, by operation
    cost: float = 0.0  # summed operation time over the reference loop's time around it
    reference_seconds: list[float] = field(default_factory=list)  # before each operation and after the last
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    store_bytes_written: int = 0
    store_bytes_read: int = 0

    def timed(self, name: str, fn: Callable[[], Any]) -> Any:
        """Time ``fn`` as operation ``name``, between two runs of the reference loop."""
        if not self.reference_seconds:
            self.reference_seconds.append(reference_seconds())
        start = time.perf_counter()
        try:
            return fn()
        finally:
            took = time.perf_counter() - start
            self.reference_seconds.append(reference_seconds())
            self.seconds += took
            self.op_seconds[name] = self.op_seconds.get(name, 0.0) + took
            self.cost += took / statistics.fmean(self.reference_seconds[-2:])

    def op(self, name: str, fn: Callable[[], Any], check: Callable[[Any], str | None]) -> None:
        """Time one operation, then check its value; a raise or a mismatch fails it."""
        self.attempted += 1
        try:
            problem = check(self.timed(name, fn))
        except Exception as exc:  # any error is a failed operation, with the reason
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{name}: {problem}")


def _contexts(wd: Any, setup: Any) -> dict[str, Any]:
    return {
        "L2": setup.wreaths["L2"],
        "C3wrZ": wd.WreathContext(wd.CyclicGroup(3), wd.IntegerGroup()),
        "W2": setup.wreaths["W2"],
        "F2": setup.groups["F2"],
    }


def _check_ball(ctx: Any, table: Any, r: int, count: int) -> str | None:
    if len(table) != count:
        return f"{len(table)} elements, expected {count}"
    if len(table.lengths) != count or any(not 0 <= table.lengths[x] < r for x in table.elements):
        return "length table does not match the open ball"
    encodings = [ctx.encode(x) for x in table.elements]
    if any(b <= a for a, b in zip(encodings, encodings[1:])):
        return "elements not in strictly increasing canonical-encoding order"
    return None


def _check_same(got: Any, elements: tuple, lengths: dict) -> str | None:
    if got.elements != elements:
        return "elements differ from the computed table"
    if got.lengths != lengths:
        return "lengths differ from the computed table"
    return None


class Verify:
    """``run_suite()`` on the built-in setup: fresh oracles each pass, no store."""

    def __init__(self, wd: Any, seed: int, toy: bool, workdir: Path):
        self.wd = wd
        self.setup = wd.default_setup()
        self.checks = CHECKS_TOY if toy else tuple(wd.CHECKS)
        self.instances = {"checks": len(self.checks)}

    def run_pass(self, res: PassResult) -> None:
        try:
            results = res.timed(SUITE_REST, lambda: self.wd.run_suite(self.setup, checks=self.checks))
        except Exception as exc:  # the suite itself crashed: every check failed
            res.attempted += len(self.checks)
            res.failures += [f"{name}: suite raised {exc!r}" for name in self.checks]
            return
        by_name = {result.name: result for result in results}
        # split the suite's time into its checks and the rest
        for result in results:
            res.op_seconds[result.name] = result.seconds
            res.op_seconds[SUITE_REST] -= result.seconds
        for name in self.checks:
            res.attempted += 1
            result = by_name.get(name)
            if result is None:
                res.failures.append(f"{name}: not run")
                continue
            if not result.passed:
                res.failures.append(f"{name}: failed {result.details}")
            elif name == PULLBACK_CHECK and result.details.get("predicted") != PULLBACK_PREDICTED:
                res.failures.append(f"{name}: predicted {result.details.get('predicted')}")


class Growth:
    """Cold ``ball()`` calls with no store, one per search path."""

    def __init__(self, wd: Any, seed: int, toy: bool, workdir: Path):
        self.wd = wd
        contexts = _contexts(wd, wd.default_setup())
        self.cases = [(name, contexts[name], r, count) for name, r, count, _ in (BALLS_TOY if toy else BALLS_FULL)]
        self.instances = {f"{name} r={r}": count for name, _, r, count in self.cases}

    def run_pass(self, res: PassResult) -> None:
        for name, ctx, r, count in self.cases:
            res.op(f"ball({name}, {r})", lambda: self.wd.ball(ctx, r), lambda t: _check_ball(ctx, t, r, count))


class GrowthCached:
    """Store round-trips: save every precomputed ball, then load it at r and r-2.

    Set-up computes the tables the passes write.  Each pass starts from an
    empty store in a fresh temporary directory, so reads come from the page
    cache: there is no fsync and no cache dropping.
    """

    def __init__(self, wd: Any, seed: int, toy: bool, workdir: Path):
        self.wd = wd
        self.workdir = workdir
        contexts = _contexts(wd, wd.default_setup())
        self.cases = []
        for name, r, count, sub_count in BALLS_TOY if toy else BALLS_FULL:
            ctx = contexts[name]
            table = wd.ball(ctx, r)
            if len(table) != count:
                raise RuntimeError(f"set-up ball({name}, {r}) has {len(table)} elements, expected {count}")
            record = wd.BallRecord(
                spec_hash=ctx.spec_hash,
                radius=Fraction(r),
                encodings=tuple(ctx.encode(x) for x in table.elements),
                lengths=tuple(table.lengths[x] for x in table.elements),
            )
            self.cases.append((name, ctx, r, table, record, sub_count))
        self.instances = {f"{name} r={r}": len(table) for name, _, r, table, _, _ in self.cases}
        self.instances.update({f"{name} r={r - 2}": sub for name, _, r, _, _, sub in self.cases})

    def run_pass(self, res: PassResult) -> None:
        self.workdir.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.workdir) as directory:
            store = self.wd.BallStore(directory)
            for name, _, r, _, record, _ in self.cases:
                res.op(
                    f"save({name}, {r})",
                    lambda: store.save(record),
                    lambda cid: None if (Path(directory) / f"{cid}.ball").is_file() else "no ball file written",
                )
            saved = sorted(Path(directory).glob("*.ball"))

            def served() -> str | None:
                # a load the store does not serve would recompute and save a new file
                if sorted(Path(directory).glob("*.ball")) != saved:
                    return "ball() recomputed instead of loading"
                return None

            for name, ctx, r, table, _, sub_count in self.cases:
                res.op(
                    f"load({name}, {r})",
                    lambda: self.wd.ball(ctx, r, store=store),
                    lambda t: _check_same(t, table.elements, table.lengths) or served(),
                )
                sub = tuple(x for x in table.elements if table.lengths[x] < r - 2)
                res.op(
                    f"load({name}, {r - 2})",
                    lambda: self.wd.ball(ctx, r - 2, store=store),
                    lambda t: (
                        f"{len(t)} elements, expected {sub_count}"
                        if len(t) != sub_count
                        else _check_same(t, sub, {x: table.lengths[x] for x in sub}) or served()
                    ),
                )
            written = sum(path.stat().st_size for path in saved)
            res.store_bytes_written += written
            res.store_bytes_read += 2 * written  # each ball file serves the r and r-2 loads


class Lattice:
    """Lattice sweeps, a seeded sample and W2 kernel-cube certificates, workers=1."""

    def __init__(self, wd: Any, seed: int, toy: bool, workdir: Path):
        self.wd = wd
        self.seed = seed
        self.W2 = wd.default_setup().wreaths["W2"]
        self.sweeps = SWEEPS_TOY if toy else SWEEPS_FULL
        self.sampled = SAMPLED_TOY if toy else SAMPLED_FULL
        self.certs = CERTS_TOY if toy else CERTS_FULL
        self.instances = {f"lattice {shape}": want[0] for shape, want in self.sweeps}
        self.instances[f"sampled {self.sampled[0]}"] = self.sampled[1]
        self.instances.update({f"certificate n={n} r={r}": k for n, r, k, _ in self.certs})

    def run_pass(self, res: PassResult) -> None:
        wd = self.wd
        for (n, k, parts), want in self.sweeps:
            res.op(
                f"lattice({n},{k},{parts})",
                lambda: wd.exhaustive_lattice_search(n, k, parts, workers=1),
                lambda rep: _check_sweep(rep, want),
            )
        (n, k, parts), samples = self.sampled
        res.op(
            f"sampled({n},{k},{parts})",
            lambda: wd.sampled_lattice_search(n, k, parts, samples, seed=self.seed),
            lambda rep: _check_sweep(rep, (samples, rep.witness_count, rep.witness_count)),
        )
        for n, r, k, growth in self.certs:
            res.op(
                f"certificate(W2, n={n}, r={r})",
                lambda: wd.growth_lower_bound_certificate(self.W2, n, r, seed=self.seed),
                lambda cert: _check_certificate(wd, cert, k, growth),
            )


def _check_sweep(report: Any, want: tuple[int, int, int]) -> str | None:
    got = (report.assignments, report.hypothesis_count, report.witness_count)
    if got != want or report.failures:
        return f"assignments/hypotheses/witnesses {got}, failures {list(report.failures[:5])}, expected {want}"
    return None


def _check_certificate(wd: Any, cert: Any, k: int, growth: int) -> str | None:
    cube = cert.kcube.cube
    if cert.growth_at_r != growth or cube.k != k or cube.k != growth // cube.n:
        return f"growth {cert.growth_at_r}, k {cube.k}, expected growth {growth}, k {k}"
    if not cert.pair_evidence:
        return "no vertex pairs checked"
    for a, b, want, got in cert.pair_evidence:
        if want != wd.l1(a, b) or got < want:
            return f"pair {a}, {b}: separation {got} below l1 {wd.l1(a, b)}"
    return None


WORKLOADS: dict[str, type] = {
    "verify": Verify,
    "growth": Growth,
    "growth-cached": GrowthCached,
    "lattice": Lattice,
}
