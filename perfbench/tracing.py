"""Spans and counters around the public entry points of wreathdim's layers.

The wrappers live in the benchmark, not in the program.  ``install`` rebinds
each entry point everywhere a wreathdim module resolves it: ``suite.py`` and
``cli.py`` bind names such as ``r_components`` at import, and ``wreath.py``
binds ``ball``, so patching the defining module alone would miss their
calls.  ``uninstall`` puts the originals back, so untraced passes run the
program exactly as shipped.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Counters (``LengthOracle`` calls, ``WreathContext.multiply``)
have no span, so their time stays in the enclosing span.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

#: The span and counter metrics of the traced run, with their units.  Values
#: are per traced pass; rates divide by the span's inclusive time.
LAYER_UNITS: dict[str, str] = {
    "groups.ball.calls": "count",
    "groups.ball.s": "s",
    "groups.ball.elements": "count",
    "groups.ball.elements_per_s": "elements/s",
    "groups.oracle_ball.calls": "count",
    "groups.oracle_ball.reuse_ratio": "ratio",
    "groups.length.calls": "count",
    "groups.length.memo_hit_ratio": "ratio",
    "groups.word_length.calls": "count",
    "groups.word_length.s": "s",
    "wreath.kernel_window.s": "s",
    "wreath.bulb_word.calls": "count",
    "wreath.bulb_word.s": "s",
    "wreath.multiply.calls": "count",
    "ballstore.save.calls": "count",
    "ballstore.save.s": "s",
    "ballstore.save.bytes": "bytes",
    "ballstore.load.calls": "count",
    "ballstore.load.s": "s",
    "ballstore.load.bytes": "bytes",
    "ballstore.load.hit_ratio": "ratio",
    "ballstore.decode.s": "s",
    "covers.r_components.calls": "count",
    "covers.r_components.s": "s",
    "covers.component_diameters.calls": "count",
    "covers.component_diameters.s": "s",
    "covers.component_diameters.pairs": "count",
    "covers.pullback_cover.s": "s",
    "covers.coset_cover.s": "s",
    "cubes.lattice.codes": "count",
    "cubes.lattice.s": "s",
    "cubes.lattice.codes_per_s": "codes/s",
    "cubes.lattice.hypothesis_ratio": "ratio",
    "cubes.sampled.samples": "count",
    "cubes.sampled.samples_per_s": "samples/s",
    "cubes.certificate.calls": "count",
    "cubes.certificate.s": "s",
    "cubes.certificate.pairs": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Accumulates span and counter totals over every traced pass."""

    def __init__(self) -> None:
        self.stats: defaultdict[str, float] = defaultdict(float)
        # one [name, child seconds] frame per open span; the root frame
        # collects the time of top-level spans
        self._stack: list[list[Any]] = [["root", 0.0]]
        self._undo: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def _call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> tuple[Any, float, float]:
        """Run ``fn`` as span ``name``; return (result, self seconds, total seconds)."""
        stack = self._stack
        frame = [name, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            total = perf_counter() - start
            stack.pop()
            stack[-1][1] += total
        return result, total - frame[1], total

    def _record(self, name: str, self_s: float, total_s: float) -> None:
        stats = self.stats
        stats[name + ".calls"] += 1
        stats[name + ".s"] += self_s
        stats[name + ".total_s"] += total_s

    def _span(self, name: str, fn: Callable, tally: Callable[[Any, tuple], None] | None = None) -> Callable:
        """Wrap ``fn`` as span ``name``; ``tally(result, args)`` adds its counts."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result, self_s, total_s = self._call(name, fn, args, kwargs)
            self._record(name, self_s, total_s)
            if tally is not None:
                tally(result, args)
            return result

        return wrapper

    @property
    def root_seconds(self) -> float:
        """Summed duration of all top-level spans so far."""
        return self._stack[0][1]

    # -- installing ------------------------------------------------------------

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        for name, module in list(sys.modules.items()):
            if name != "wreathdim" and not name.startswith("wreathdim."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, wd: Any) -> None:
        """Wrap the layer entry points of the imported package ``wd``."""
        stats = self.stats
        call = self._call
        record = self._record

        ball = wd.ball

        def traced_ball(*args: Any, **kwargs: Any) -> Any:
            # A ball served by the store is decode work, not search work.
            hits = stats["ballstore.load.hits"]
            stats["groups.ball.entered"] += 1
            table, self_s, total_s = call("groups.ball", ball, args, kwargs)
            if stats["ballstore.load.hits"] > hits:
                stats["ballstore.decode.s"] += self_s
            else:
                record("groups.ball", self_s, total_s)
                stats["groups.ball.elements"] += len(table)
            return table

        self._rebind(ball, traced_ball)

        oracle_ball = wd.LengthOracle.ball

        def counted_oracle_ball(oracle: Any, r: Any) -> Any:
            entered = stats["groups.ball.entered"]
            table = oracle_ball(oracle, r)
            stats["groups.oracle_ball.calls"] += 1
            if stats["groups.ball.entered"] == entered:
                stats["groups.oracle_ball.reused"] += 1
            return table

        self._patch(wd.LengthOracle, "ball", counted_oracle_ball)

        def counted_length(method: Callable) -> Callable:
            def wrapper(oracle: Any, *args: Any) -> Any:
                searched = stats["groups.word_length.calls"]
                value = method(oracle, *args)
                stats["groups.length.calls"] += 1
                if stats["groups.word_length.calls"] == searched:
                    stats["groups.length.memo_hits"] += 1
                return value

            return wrapper

        for attr in ("length", "length_at_most"):
            self._patch(wd.LengthOracle, attr, counted_length(getattr(wd.LengthOracle, attr)))

        multiply = wd.WreathContext.multiply

        def counted_multiply(ctx: Any, x: Any, y: Any) -> Any:
            stats["wreath.multiply.calls"] += 1
            return multiply(ctx, x, y)

        self._patch(wd.WreathContext, "multiply", counted_multiply)

        def saved(content_id: str, args: tuple) -> None:
            stats["ballstore.save.bytes"] += os.path.getsize(args[0].directory / f"{content_id}.ball")

        def loaded(found: Any, args: tuple) -> None:
            stats["ballstore.load.hits"] += found is not None

        self._patch(wd.BallStore, "save", self._span("ballstore.save", wd.BallStore.save, saved))
        self._patch(wd.BallStore, "load", self._span("ballstore.load", wd.BallStore.load, loaded))

        from_bytes = wd.BallRecord.from_bytes.__func__

        def counted_from_bytes(cls: Any, data: bytes) -> Any:
            stats["ballstore.load.bytes"] += len(data)
            return from_bytes(cls, data)

        self._patch(wd.BallRecord, "from_bytes", classmethod(counted_from_bytes))

        def components(comps: Any, args: tuple) -> None:
            if self._stack[-1][0] == "covers.component_diameters":
                stats["covers.component_diameters.pairs"] += sum(len(c) * (len(c) - 1) // 2 for c in comps)

        def swept(report: Any, args: tuple) -> None:
            stats["cubes.lattice.codes"] += report.assignments
            stats["cubes.lattice.hypotheses"] += report.hypothesis_count

        def sampled(report: Any, args: tuple) -> None:
            stats["cubes.sampled.samples"] += report.assignments

        def certified(cert: Any, args: tuple) -> None:
            stats["cubes.certificate.pairs"] += len(cert.pair_evidence)

        for name, fn, tally in (
            ("groups.word_length", wd.word_length, None),
            ("wreath.kernel_window", wd.kernel_window, None),
            ("wreath.bulb_word", wd.bulb_word, None),
            ("covers.r_components", wd.r_components, components),
            ("covers.component_diameters", wd.component_diameters, None),
            ("covers.pullback_cover", wd.pullback_cover, None),
            ("covers.coset_cover", wd.coset_cover, None),
            ("cubes.lattice", wd.exhaustive_lattice_search, swept),
            ("cubes.sampled", wd.sampled_lattice_search, sampled),
            ("cubes.certificate", wd.growth_lower_bound_certificate, certified),
        ):
            self._rebind(fn, self._span(name, fn, tally))

    def uninstall(self) -> None:
        """Restore every original entry point, newest patch first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """The ``LAYER_UNITS`` metrics, averaged over ``passes`` traced passes."""
        s = self.stats
        per_pass = {name: s[name] / passes for name in LAYER_UNITS}
        per_pass.update(
            {
                "groups.ball.elements_per_s": _ratio(s["groups.ball.elements"], s["groups.ball.total_s"]),
                "groups.oracle_ball.reuse_ratio": _ratio(
                    s["groups.oracle_ball.reused"], s["groups.oracle_ball.calls"]
                ),
                "groups.length.memo_hit_ratio": _ratio(s["groups.length.memo_hits"], s["groups.length.calls"]),
                "ballstore.load.hit_ratio": _ratio(s["ballstore.load.hits"], s["ballstore.load.calls"]),
                "cubes.lattice.codes_per_s": _ratio(s["cubes.lattice.codes"], s["cubes.lattice.total_s"]),
                "cubes.lattice.hypothesis_ratio": _ratio(s["cubes.lattice.hypotheses"], s["cubes.lattice.codes"]),
                "cubes.sampled.samples_per_s": _ratio(s["cubes.sampled.samples"], s["cubes.sampled.total_s"]),
            }
        )
        return per_pass
