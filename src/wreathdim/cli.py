"""Command-line front end: growth tables, lengths, components, covers, cubes.

Every command reads an optional INI config (defaulting to the built-in
one), merges a few common flags over it, and emits a schema-versioned JSON
or CSV report to stdout or --out.  ``verify`` runs the built-in check suite
and exits nonzero if any check fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from . import __version__
from .config import ExperimentSetup, default_setup, load_config, parse_radii
from .covers import (
    GroupWindowView,
    ball_window,
    component_diameters,
    cover_of,
    kernel_control_bound,
    max_diameter,
    pullback_cover,
    r_components,
)
from .cubes import (
    exhaustive_lattice_search,
    growth_lower_bound_certificate,
    sampled_lattice_search,
)
from .errors import BudgetExceededError, ConfigError
from .groups import IntegerGroup, LengthOracle, word_length
from .suite import run_suite
from .wreath import WreathContext, kernel_window


@dataclass
class _Run:
    setup: ExperimentSetup
    out_format: str
    out_path: str


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config path (defaults to the built-in setup)")
    sub.add_argument("--out", default="-", help="output path, - for stdout")
    sub.add_argument("--format", choices=("json", "csv"), help="report format")
    sub.add_argument("--budget", type=int, help="search node budget")
    sub.add_argument("--workers", type=int, help="worker processes for exhaustive sweeps")
    sub.add_argument("--seed", type=int, help="seed for sampled searches")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathdim",
        description="Exact word metrics, covers, and cube certificates for marked groups.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("growth", help="ball sizes at the given radii")
    p.add_argument("--name", required=True, help="declared group or wreath name")
    p.add_argument("--radii", help="radii list like '1..6' or '1 3/2 2'")
    _common_flags(p)

    p = commands.add_parser("length", help="word lengths of listed elements")
    p.add_argument("--name", required=True)
    p.add_argument("elements", nargs="+", help="element literals in the kind's text form")
    _common_flags(p)

    p = commands.add_parser("components", help="r-components of a window and their diameters")
    p.add_argument("--name", required=True)
    p.add_argument("--window-radius", required=True, help="window = open ball of this radius")
    p.add_argument("--kernel", action="store_true", help="restrict to the lamp kernel (wreaths)")
    p.add_argument("--radii", help="component scales")
    _common_flags(p)

    p = commands.add_parser("control", help="predicted vs measured cover control values")
    p.add_argument("--name", required=True, help="a declared wreath name")
    p.add_argument("--mode", choices=("kernel", "pullback"), default="kernel")
    p.add_argument("--window-radius", required=True)
    p.add_argument("--radii", help="scales (kernel mode)")
    p.add_argument("--r", help="scale (pullback mode)", default="2")
    p.add_argument("--sub-window", type=int, default=20, help="base window half-width")
    p.add_argument("--cover-period", type=int, default=8, help="interval cover offset")
    p.add_argument("--cover-length", type=int, default=11, help="interval cover diameter")
    _common_flags(p)

    p = commands.add_parser("cube", help="growth-driven kernel cube certificate")
    p.add_argument("--name", required=True, help="a declared wreath name")
    p.add_argument("--n", type=int, required=True, help="cube dimension")
    p.add_argument("--r", required=True, help="base ball radius")
    _common_flags(p)

    p = commands.add_parser("lattice", help="sweep lattice covers for the spread witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--parts", type=int, required=True)
    p.add_argument("--samples", type=int, help="sampled sweep instead of exhaustive")
    _common_flags(p)

    p = commands.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--checks", help="comma-separated subset of checks to run")
    _common_flags(p)

    return parser


def _prepare(args: argparse.Namespace) -> _Run:
    setup = load_config(args.config) if args.config else default_setup()
    if args.budget is not None:
        if args.budget <= 0:
            raise ConfigError("--budget must be positive")
        setup.budget = args.budget
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        setup.workers = args.workers
    if args.seed is not None:
        setup.seed = args.seed
    out_format = args.format if args.format else setup.out_format
    return _Run(setup, out_format, args.out)


def _report(run: _Run, command: str, params: dict, results: Any) -> dict:
    return {
        "schema": f"wreathdim-{command}/1",
        "version": __version__,
        "command": command,
        "params": params,
        "results": results,
    }


def _write(run: _Run, payload: dict, rows: list[dict] | None = None) -> None:
    if run.out_format == "csv":
        if rows is None:
            raise ConfigError(f"{payload['command']} only supports --format json")
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if run.out_path == "-":
        sys.stdout.write(text)
    else:
        with open(run.out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _radii(args: argparse.Namespace, run: _Run) -> tuple[Fraction, ...]:
    if getattr(args, "radii", None):
        return parse_radii(args.radii)
    if run.setup.radii:
        return run.setup.radii
    return parse_radii("1..6")


def _radius_flag(flag: str, text: str) -> Fraction:
    try:
        (radius,) = parse_radii(text)
    except ValueError:  # a ConfigError from parse_radii, or not exactly one radius
        raise ConfigError(f"{flag} must be one positive radius, got {text!r}") from None
    return radius


def _cmd_growth(args: argparse.Namespace) -> int:
    run = _prepare(args)
    ctx = run.setup.context(args.name)
    oracle = LengthOracle(ctx, budget=run.setup.budget)
    rows = []
    for r in _radii(args, run):
        rows.append({"name": args.name, "radius": str(r), "growth": oracle.growth(r)})
    _write(run, _report(run, "growth", {"name": args.name}, rows), rows)
    return 0


def _cmd_length(args: argparse.Namespace) -> int:
    run = _prepare(args)
    ctx = run.setup.context(args.name)
    rows = []
    for text in args.elements:
        g = ctx.parse_element(text)
        rows.append(
            {
                "name": args.name,
                "element": ctx.format_element(g),
                "length": word_length(ctx, g, budget=run.setup.budget),
            }
        )
    _write(run, _report(run, "length", {"name": args.name}, rows), rows)
    return 0


def _window_view(
    run: _Run, ctx: Any, window_radius: Fraction, kernel: bool
) -> GroupWindowView:
    if kernel and not isinstance(ctx, WreathContext):
        raise ConfigError("--kernel only applies to wreath contexts")
    oracle = LengthOracle(ctx, budget=run.setup.budget)
    if kernel:
        return GroupWindowView(ctx, kernel_window(ctx, window_radius, oracle=oracle), oracle)
    return ball_window(oracle, window_radius)


def _cmd_components(args: argparse.Namespace) -> int:
    run = _prepare(args)
    ctx = run.setup.context(args.name)
    window_radius = _radius_flag("--window-radius", args.window_radius)
    view = _window_view(run, ctx, window_radius, args.kernel)
    rows = []
    for r in _radii(args, run):
        comps = r_components(view, None, r)
        worst = max_diameter(view, comps)
        rows.append(
            {
                "name": args.name,
                "window_radius": str(window_radius),
                "kernel": args.kernel,
                "radius": str(r),
                "components": len(comps),
                "max_diameter": worst,
            }
        )
    params = {"name": args.name, "window_radius": str(window_radius), "kernel": args.kernel}
    _write(run, _report(run, "components", params, rows), rows)
    return 0


def _cmd_control(args: argparse.Namespace) -> int:
    run = _prepare(args)
    ctx = run.setup.context(args.name)
    if not isinstance(ctx, WreathContext):
        raise ConfigError(f"control needs a wreath context, and {args.name!r} is not one")
    window_radius = _radius_flag("--window-radius", args.window_radius)
    base_oracle = LengthOracle(ctx.base, budget=run.setup.budget)
    if args.mode == "kernel":
        view = _window_view(run, ctx, window_radius, kernel=True)
        rows = []
        for r in _radii(args, run):
            bound = kernel_control_bound(ctx, r, base_oracle=base_oracle)
            worst = max_diameter(view, r_components(view, None, r))
            rows.append(
                {
                    "radius": str(r),
                    "predicted": str(bound),
                    "measured": worst,
                    "ok": worst <= bound,
                }
            )
        params = {"name": args.name, "mode": "kernel", "window_radius": str(window_radius)}
        _write(run, _report(run, "control", params, rows), rows)
        return 0
    if not isinstance(ctx.base, IntegerGroup):
        raise ConfigError(
            f"--mode pullback needs a wreath over an integers base, "
            f"and the base of {args.name!r} is of kind {ctx.base.kind!r}"
        )
    r = _radius_flag("--r", args.r)
    for flag, value, least in (
        ("--sub-window", args.sub_window, 0),
        ("--cover-period", args.cover_period, 1),
        ("--cover-length", args.cover_length, 0),
    ):
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    view = _window_view(run, ctx, window_radius, kernel=False)
    span = args.sub_window
    reach = max(abs(x.cursor) for x in view.points)
    if span < reach:
        raise ConfigError(
            f"--sub-window must be >= {reach}, the largest |cursor| in the window, got {span}"
        )
    sub_points = [ctx.base.parse_element(str(a)) for a in range(-span, span + 1)]
    sub_view = GroupWindowView(ctx.base, sub_points, base_oracle)
    period, length = args.cover_period, args.cover_length
    parts = [
        {a for a in sub_points if ((a - j * period) % (2 * period)) <= length}
        for j in (0, 1)
    ]
    result = pullback_cover(view, sub_view, cover_of(parts), r)
    measured = component_diameters(view, result.cover, r)
    rows = [
        {
            "radius": str(r),
            "base_control": str(result.base_control),
            "predicted": str(result.predicted),
            "measured": str(measured.value),
            "ok": measured.value <= result.predicted,
        }
    ]
    params = {
        "name": args.name,
        "mode": "pullback",
        "window_radius": str(window_radius),
        "sub_window": span,
        "cover_period": period,
        "cover_length": length,
    }
    _write(run, _report(run, "control", params, rows), rows)
    return 0


def _cmd_cube(args: argparse.Namespace) -> int:
    run = _prepare(args)
    ctx = run.setup.context(args.name)
    if not isinstance(ctx, WreathContext):
        raise ConfigError(f"cube needs a wreath context, and {args.name!r} is not one")
    oracle = LengthOracle(ctx.base, budget=run.setup.budget)
    r = _radius_flag("--r", args.r)
    cert = growth_lower_bound_certificate(ctx, args.n, r, base_oracle=oracle, seed=run.setup.seed)
    payload = _report(run, "cube", {"name": args.name, "n": args.n, "r": args.r}, cert.to_json_dict())
    _write(run, payload, None)
    return 0


def _cmd_lattice(args: argparse.Namespace) -> int:
    run = _prepare(args)
    if args.samples is not None:
        report = sampled_lattice_search(
            args.n, args.k, args.parts, args.samples, seed=run.setup.seed
        )
        mode = "sampled"
    else:
        report = exhaustive_lattice_search(
            args.n, args.k, args.parts, workers=run.setup.workers, budget=run.setup.budget
        )
        mode = "exhaustive"
    results = {
        "mode": mode,
        "n": report.n,
        "k": report.k,
        "parts": report.num_parts,
        "assignments": report.assignments,
        "hypothesis_count": report.hypothesis_count,
        "witness_count": report.witness_count,
        "failures": list(report.failures),
    }
    payload = _report(run, "lattice", {"n": args.n, "k": args.k, "parts": args.parts}, results)
    _write(run, payload, None)
    return 0 if not report.failures else 4


def _cmd_verify(args: argparse.Namespace) -> int:
    run = _prepare(args)
    wanted = args.checks.split(",") if args.checks else None
    if wanted is None and run.setup.checks is not None:
        wanted = list(run.setup.checks)
    results = run_suite(run.setup, checks=wanted)
    rows = [
        {
            "check": res.name,
            "passed": res.passed,
            "seconds": round(res.seconds, 3),
        }
        for res in results
    ]
    payload = _report(
        run,
        "verify",
        {"checks": [res.name for res in results]},
        [
            {
                "check": res.name,
                "passed": res.passed,
                "seconds": round(res.seconds, 3),
                "details": res.details,
            }
            for res in results
        ],
    )
    payload["passed"] = all(res.passed for res in results)
    for res in results:
        status = "pass" if res.passed else "FAIL"
        sys.stderr.write(f"{status:4s} {res.name} ({res.seconds:.2f}s)\n")
    _write(run, payload, rows)
    return 0 if payload["passed"] else 1


_COMMANDS = {
    "growth": _cmd_growth,
    "length": _cmd_length,
    "components": _cmd_components,
    "control": _cmd_control,
    "cube": _cmd_cube,
    "lattice": _cmd_lattice,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
