"""Command-line front end: growth tables, lengths, components, covers, cubes.

Commands that name a group read it from an optional INI config (defaulting
to the built-in one); every run setting is a flag, and each command takes
only the flags it reads.  Reports are schema-versioned JSON, or CSV where a
command has ``--format``, written to stdout or --out.  ``verify`` runs the
built-in check suite and exits nonzero if any check fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
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
from .cubes import exhaustive_lattice_search, growth_lower_bound_certificate
from .errors import BudgetExceededError, ConfigError
from .groups import DEFAULT_BUDGET, IntegerGroup, LengthOracle, word_length
from .suite import run_suite
from .wreath import WreathContext, kernel_window


_FLAGS: dict[str, dict[str, Any]] = {
    "config": {"help": "INI config path (defaults to the built-in setup)"},
    "out": {"default": "-", "help": "output path, - for stdout"},
    "format": {"choices": ("json", "csv"), "default": "json", "help": "report format"},
    "budget": {"type": int, "default": DEFAULT_BUDGET, "help": "search node budget"},
    "seed": {"type": int, "default": 0, "help": "seed for the certificate's vertex-pair sample"},
}


def _flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """Register the named run-setting flags on one subcommand."""
    for name in names:
        sub.add_argument(f"--{name}", **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathdim",
        description="Exact word metrics, covers, and cube certificates for marked groups.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("growth", help="ball sizes at the given radii")
    p.add_argument("--name", required=True, help="declared group or wreath name")
    p.add_argument("--radii", default="1..6", help="radii list like '1..6' or '1 3/2 2'")
    _flags(p, "config", "out", "format", "budget")

    p = commands.add_parser("length", help="word lengths of listed elements")
    p.add_argument("--name", required=True)
    p.add_argument("elements", nargs="+", help="element literals in the kind's text form")
    _flags(p, "config", "out", "format", "budget")

    p = commands.add_parser("components", help="r-components of a window and their diameters")
    p.add_argument("--name", required=True)
    p.add_argument("--window-radius", required=True, help="window = open ball of this radius")
    p.add_argument("--kernel", action="store_true", help="restrict to the lamp kernel (wreaths)")
    p.add_argument("--radii", default="1..6", help="component scales")
    _flags(p, "config", "out", "format", "budget")

    p = commands.add_parser("control", help="predicted vs measured cover control values")
    p.add_argument("--name", required=True, help="a declared wreath name")
    p.add_argument("--mode", choices=("kernel", "pullback"), default="kernel")
    p.add_argument("--window-radius", required=True)
    p.add_argument("--radii", default="1..6", help="scales (kernel mode)")
    p.add_argument("--r", help="scale (pullback mode)", default="2")
    p.add_argument("--sub-window", type=int, default=20, help="base window half-width")
    p.add_argument("--cover-period", type=int, default=8, help="interval cover offset")
    p.add_argument("--cover-length", type=int, default=11, help="interval cover diameter")
    _flags(p, "config", "out", "format", "budget")

    p = commands.add_parser("cube", help="growth-driven kernel cube certificate")
    p.add_argument("--name", required=True, help="a declared wreath name")
    p.add_argument("--n", type=int, required=True, help="cube dimension")
    p.add_argument("--r", required=True, help="base ball radius")
    _flags(p, "config", "out", "budget", "seed")

    p = commands.add_parser("lattice", help="sweep lattice covers for the spread witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--parts", type=int, required=True)
    _flags(p, "out", "budget")

    p = commands.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--checks", help="comma-separated subset of checks to run")
    _flags(p, "out", "format", "budget")

    return parser


def _setup(args: argparse.Namespace) -> ExperimentSetup:
    return load_config(args.config) if args.config else default_setup()


def _report(command: str, params: dict, results: Any) -> dict:
    return {
        "schema": f"wreathdim-{command}/1",
        "version": __version__,
        "command": command,
        "params": params,
        "results": results,
    }


def _write(
    out_path: str, payload: dict, rows: list[dict] | None = None, out_format: str = "json"
) -> None:
    if out_format == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _radius_flag(flag: str, text: str) -> Fraction:
    try:
        (radius,) = parse_radii(text)
    except ValueError:  # a ConfigError from parse_radii, or not exactly one radius
        raise ConfigError(f"{flag} must be one positive radius, got {text!r}") from None
    return radius


def _cmd_growth(args: argparse.Namespace) -> int:
    ctx = _setup(args).context(args.name)
    oracle = LengthOracle(ctx, budget=args.budget)
    rows = []
    for r in parse_radii(args.radii):
        rows.append({"name": args.name, "radius": str(r), "growth": oracle.growth(r)})
    _write(args.out, _report("growth", {"name": args.name}, rows), rows, args.format)
    return 0


def _cmd_length(args: argparse.Namespace) -> int:
    ctx = _setup(args).context(args.name)
    rows = []
    for text in args.elements:
        g = ctx.parse_element(text)
        rows.append(
            {
                "name": args.name,
                "element": ctx.format_element(g),
                "length": word_length(ctx, g, budget=args.budget),
            }
        )
    _write(args.out, _report("length", {"name": args.name}, rows), rows, args.format)
    return 0


def _window_view(ctx: Any, window_radius: Fraction, kernel: bool, budget: int) -> GroupWindowView:
    if kernel and not isinstance(ctx, WreathContext):
        raise ConfigError("--kernel only applies to wreath contexts")
    oracle = LengthOracle(ctx, budget=budget)
    if kernel:
        return GroupWindowView(ctx, kernel_window(ctx, window_radius, oracle=oracle), oracle)
    return ball_window(oracle, window_radius)


def _cmd_components(args: argparse.Namespace) -> int:
    ctx = _setup(args).context(args.name)
    window_radius = _radius_flag("--window-radius", args.window_radius)
    view = _window_view(ctx, window_radius, args.kernel, args.budget)
    rows = []
    for r in parse_radii(args.radii):
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
    _write(args.out, _report("components", params, rows), rows, args.format)
    return 0


def _cmd_control(args: argparse.Namespace) -> int:
    ctx = _setup(args).context(args.name)
    if not isinstance(ctx, WreathContext):
        raise ConfigError(f"control needs a wreath context, and {args.name!r} is not one")
    window_radius = _radius_flag("--window-radius", args.window_radius)
    base_oracle = LengthOracle(ctx.base, budget=args.budget)
    if args.mode == "kernel":
        view = _window_view(ctx, window_radius, kernel=True, budget=args.budget)
        rows = []
        for r in parse_radii(args.radii):
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
        _write(args.out, _report("control", params, rows), rows, args.format)
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
    view = _window_view(ctx, window_radius, kernel=False, budget=args.budget)
    span = args.sub_window
    reach = max(abs(x.cursor) for x in view.points)
    if span < reach:
        raise ConfigError(
            f"--sub-window must be >= {reach}, the largest |cursor| in the window, got {span}"
        )
    sub_points = range(-span, span + 1)
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
    _write(args.out, _report("control", params, rows), rows, args.format)
    return 0


def _cmd_cube(args: argparse.Namespace) -> int:
    ctx = _setup(args).context(args.name)
    if not isinstance(ctx, WreathContext):
        raise ConfigError(f"cube needs a wreath context, and {args.name!r} is not one")
    oracle = LengthOracle(ctx.base, budget=args.budget)
    r = _radius_flag("--r", args.r)
    cert = growth_lower_bound_certificate(ctx, args.n, r, base_oracle=oracle, seed=args.seed)
    payload = _report("cube", {"name": args.name, "n": args.n, "r": str(r)}, cert.to_json_dict())
    _write(args.out, payload)
    return 0


def _cmd_lattice(args: argparse.Namespace) -> int:
    report = exhaustive_lattice_search(args.n, args.k, args.parts, budget=args.budget)
    results = {
        "mode": "exhaustive",
        "n": report.n,
        "k": report.k,
        "parts": report.num_parts,
        "assignments": report.assignments,
        "hypothesis_count": report.hypothesis_count,
        "witness_count": report.witness_count,
        "nontrivial_count": report.nontrivial_count,
        "failures": list(report.failures),
    }
    payload = _report("lattice", {"n": args.n, "k": args.k, "parts": args.parts}, results)
    _write(args.out, payload)
    return 0 if not report.failures else 4


def _cmd_verify(args: argparse.Namespace) -> int:
    wanted = args.checks.split(",") if args.checks else None
    results = run_suite(checks=wanted, budget=args.budget)
    records = [
        {
            "check": res.name,
            "passed": res.passed,
            "seconds": round(res.seconds, 3),
            "details": res.details,
        }
        for res in results
    ]
    rows = [{key: value for key, value in rec.items() if key != "details"} for rec in records]
    payload = _report("verify", {"checks": [res.name for res in results]}, records)
    payload["passed"] = all(res.passed for res in results)
    for res in results:
        status = "pass" if res.passed else "FAIL"
        sys.stderr.write(f"{status:4s} {res.name} ({res.seconds:.2f}s)\n")
    _write(args.out, payload, rows, args.format)
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
        if args.budget < 1:
            raise ConfigError(f"--budget must be >= 1, got {args.budget}")
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
