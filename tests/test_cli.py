"""Command-line interface: subcommands, report formats, and exit codes."""

from __future__ import annotations

import csv
import io
import json

import pytest

from wreathdim import LatticeSearchReport
from wreathdim.cli import main


def run_json(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return json.loads(captured.out)


def run_csv(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return list(csv.DictReader(io.StringIO(captured.out)))


# -- growth -------------------------------------------------------------------


def test_growth_json_schema(capsys):
    payload = run_json(capsys, ["growth", "--name", "Z", "--radii", "1..3"])
    assert payload["schema"] == "wreathdim-growth/1"
    assert payload["command"] == "growth"
    assert [row["growth"] for row in payload["results"]] == [1, 3, 5]


def test_growth_csv(capsys):
    rows = run_csv(
        capsys, ["growth", "--name", "L2", "--radii", "1..6", "--format", "csv"]
    )
    assert [int(r["growth"]) for r in rows] == [1, 4, 10, 22, 44, 84]


def test_growth_radii_default_to_one_through_six(capsys):
    payload = run_json(capsys, ["growth", "--name", "L2"])
    assert [row["radius"] for row in payload["results"]] == ["1", "2", "3", "4", "5", "6"]
    assert [row["growth"] for row in payload["results"]] == [1, 4, 10, 22, 44, 84]


def test_growth_fractional_radii(capsys):
    rows = run_csv(
        capsys, ["growth", "--name", "Z", "--radii", "1 3/2 2", "--format", "csv"]
    )
    assert [r["radius"] for r in rows] == ["1", "3/2", "2"]
    assert [int(r["growth"]) for r in rows] == [1, 3, 3]


# -- length -------------------------------------------------------------------


def test_length_elements(capsys):
    rows = run_csv(
        capsys,
        ["length", "--name", "L2", "{0:1,2:1}|0", "{}|3", "--format", "csv"],
    )
    assert [(r["element"], int(r["length"])) for r in rows] == [
        ("{0:1,2:1}|0", 6),
        ("{}|3", 3),
    ]


def test_length_on_plain_group(capsys):
    rows = run_csv(capsys, ["length", "--name", "F2", "aaB", "e", "--format", "csv"])
    assert [int(r["length"]) for r in rows] == [3, 0]


# -- components ----------------------------------------------------------------


def test_components_kernel_window(capsys):
    rows = run_csv(
        capsys,
        [
            "components",
            "--name",
            "L2",
            "--window-radius",
            "6",
            "--kernel",
            "--radii",
            "2 4",
            "--format",
            "csv",
        ],
    )
    assert [(int(r["components"]), int(r["max_diameter"])) for r in rows] == [
        (5, 1),
        (3, 7),
    ]


def test_components_whole_window(capsys):
    payload = run_json(
        capsys,
        ["components", "--name", "Z", "--window-radius", "4", "--radii", "2"],
    )
    (row,) = payload["results"]
    # The 7-point window {-3..3} is 2-connected with diameter 6.
    assert row["components"] == 1
    assert row["max_diameter"] == 6
    assert payload["params"]["kernel"] is False


# -- control -------------------------------------------------------------------


def test_control_kernel_mode(capsys, searched_levels):
    rows = run_csv(
        capsys,
        [
            "control",
            "--name",
            "L2",
            "--mode",
            "kernel",
            "--window-radius",
            "10",
            "--radii",
            "1..3",
            "--format",
            "csv",
        ],
    )
    assert [(r["predicted"], int(r["measured"])) for r in rows] == [
        ("3", 0),
        ("15", 1),
        ("35", 1),
    ]
    assert all(r["ok"] == "True" for r in rows)
    # the kernel window comes from the 10-ball's levels; no pair-distance level is searched
    assert max(searched_levels) == 9


def test_control_pullback_mode(capsys):
    rows = run_csv(
        capsys,
        [
            "control",
            "--name",
            "L2",
            "--mode",
            "pullback",
            "--window-radius",
            "8",
            "--r",
            "2",
            "--format",
            "csv",
        ],
    )
    # the row is frozen whole: the same numbers as check 8 of verify
    assert rows == [
        {"radius": "2", "base_control": "11", "predicted": "2314", "measured": "14", "ok": "True"}
    ]


def test_control_pullback_needs_an_integers_base(capsys):
    rc = main(["control", "--name", "W2", "--mode", "pullback", "--window-radius", "4"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--mode pullback needs a wreath over an integers base" in captured.err
    assert "'W2'" in captured.err


PULLBACK = ["control", "--name", "L2", "--mode", "pullback", "--window-radius", "5"]


@pytest.mark.parametrize(
    "args, message",
    [
        ([*PULLBACK, "--cover-period", "0"], "--cover-period must be >= 1, got 0"),
        ([*PULLBACK, "--cover-period", "-8"], "--cover-period must be >= 1, got -8"),
        ([*PULLBACK, "--sub-window", "-1"], "--sub-window must be >= 0, got -1"),
        ([*PULLBACK, "--cover-length", "-2"], "--cover-length must be >= 0, got -2"),
        ([*PULLBACK, "--r", "abc"], "--r must be one positive radius, got 'abc'"),
        ([*PULLBACK, "--r", "0"], "--r must be one positive radius, got '0'"),
        ([*PULLBACK, "--window-radius", "x"], "--window-radius must be one positive radius"),
        (["control", "--name", "L2", "--window-radius", "-4"], "--window-radius must be"),
        (["components", "--name", "L2", "--window-radius", "1..3"], "--window-radius must be"),
        (["cube", "--name", "W2", "--n", "2", "--r", "abc"], "--r must be one positive radius"),
        (
            [*PULLBACK, "--sub-window", "1"],
            "--sub-window must be >= 4, the largest |cursor| in the window, got 1",
        ),
        (["verify", "--budget", "0"], "--budget must be >= 1, got 0"),
        (["lattice", "--n", "2", "--k", "2", "--parts", "2", "--budget", "0"], "--budget must be"),
        (["components", "--name", "Z", "--window-radius", "+4"], "--window-radius must be"),
    ],
)
def test_bad_flags_are_config_errors_naming_the_flag(capsys, args, message):
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert message in captured.err


def test_control_pullback_sub_window_at_the_cursor_bound(capsys):
    # window radius 5 reaches cursors -4..4, so a half-width of 4 covers it
    payload = run_json(capsys, [*PULLBACK, "--sub-window", "4"])
    assert payload["params"]["sub_window"] == 4
    assert payload["results"] == [
        {"radius": "2", "base_control": "7", "predicted": "1030", "measured": "8", "ok": True}
    ]


# -- cube ----------------------------------------------------------------------


def test_cube_certificate(capsys):
    payload = run_json(capsys, ["cube", "--name", "W2", "--n", "2", "--r", "2"])
    cert = payload["results"]
    assert cert["schema"] == "kernel-cube-certificate/1"
    assert cert["k"] == 2
    assert len(cert["pairs"]) == 36
    assert all(p["separation"] >= p["l1"] for p in cert["pairs"])


def test_cube_echoes_the_parsed_radius(capsys):
    payload = run_json(capsys, ["cube", "--name", "W2", "--n", "2", "--r", "4/2"])
    assert payload["params"]["r"] == payload["results"]["r"] == "2"


# -- lattice -------------------------------------------------------------------


def test_lattice_exhaustive(capsys):
    payload = run_json(capsys, ["lattice", "--n", "2", "--k", "1", "--parts", "2"])
    res = payload["results"]
    assert res["assignments"] == 81
    assert res["hypothesis_count"] == res["witness_count"] == 31
    assert res["nontrivial_count"] == 0
    assert res["failures"] == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--k", "0", "--parts", "1"], "lattice k must be"),
        (["--k", "2", "--parts", "0"], "lattice num_parts must be"),
    ],
)
def test_lattice_rejects_degenerate_sizes(capsys, flags, message):
    rc = main(["lattice", "--n", "2", *flags])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert message in captured.err


def test_lattice_refuses_a_sweep_over_the_budget(capsys):
    rc = main(["lattice", "--n", "3", "--k", "2", "--parts", "2"])  # 3^27 codes
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "3^(3^3) assignment codes" in captured.err
    assert main(["lattice", "--n", "2", "--k", "2", "--parts", "2", "--budget", "19682"]) == 3
    # one part is one code, but the scanner relates 21^2 points pairwise
    assert main(["lattice", "--n", "2", "--k", "20", "--parts", "1", "--budget", "1000"]) == 3
    assert "(21^2)^2 point pairs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sweep, flags",
    [
        ("exhaustive_lattice_search", []),
    ],
)
def test_lattice_refutation_exits_4_with_its_report(capsys, monkeypatch, sweep, flags):
    def refuted(n, k, num_parts, *args, **kwargs):
        return LatticeSearchReport(n, k, num_parts, 9, 2, 1, (5,))

    monkeypatch.setattr(f"wreathdim.cli.{sweep}", refuted)
    rc = main(["lattice", "--n", "2", "--k", "2", "--parts", "2", *flags])
    captured = capsys.readouterr()
    assert rc == 4
    res = json.loads(captured.out)["results"]
    assert (res["hypothesis_count"], res["witness_count"], res["failures"]) == (2, 1, [5])


# -- verify --------------------------------------------------------------------


def test_verify_single_check(capsys):
    rc = main(["verify", "--checks", "bulb-word-bound"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "pass bulb-word-bound" in captured.err
    payload = json.loads(captured.out)
    assert payload["passed"] is True
    assert [r["check"] for r in payload["results"]] == ["bulb-word-bound"]
    assert payload["results"][0]["details"]["products"] == 127


def test_verify_unknown_check_is_config_error(capsys):
    rc = main(["verify", "--checks", "no-such-check"])
    assert rc == 2


# -- plumbing ------------------------------------------------------------------


def test_out_writes_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["growth", "--name", "Z", "--radii", "1..2", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert json.loads(out.read_text())["schema"] == "wreathdim-growth/1"


@pytest.mark.parametrize(
    "args, flag",
    [
        (["lattice", "--n", "2", "--k", "2", "--parts", "2", "--format", "csv"], "--format"),
        (["cube", "--name", "W2", "--n", "2", "--r", "2", "--format", "csv"], "--format"),
        (["growth", "--name", "L2", "--workers", "2"], "--workers"),
        (["verify", "--config", "x.ini"], "--config"),
        (["verify", "--workers", "2"], "--workers"),
        (["lattice", "--n", "2", "--k", "2", "--parts", "2", "--workers", "2"], "--workers"),
        (["lattice", "--n", "2", "--k", "2", "--parts", "2", "--samples", "40"], "--samples"),
        (["lattice", "--n", "2", "--k", "2", "--parts", "2", "--seed", "1"], "--seed"),
    ],
)
def test_commands_refuse_flags_they_do_not_read(capsys, monkeypatch, args, flag):
    monkeypatch.setattr("wreathdim.cli._COMMANDS", {})  # no command may start
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


def test_cache_dir_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["growth", "--name", "Z", "--radii", "1..3", "--cache-dir", "balls"])
    assert exc.value.code == 2
    assert "--cache-dir" in capsys.readouterr().err


def test_growth_leaves_the_old_cache_directory_empty(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("WREATHDIM_CACHE_DIR", str(tmp_path))
    report = run_json(capsys, ["growth", "--name", "L2", "--radii", "1..4"])
    assert [row["growth"] for row in report["results"]] == [1, 4, 10, 22]
    assert list(tmp_path.iterdir()) == []


def test_config_file_declares_instances(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[group A]\nkind = cyclic\nmodulus = 4\n"
        "[wreath WA]\nfiber = A\nbase = A\n"
    )
    rows = run_csv(
        capsys,
        [
            "growth",
            "--name",
            "WA",
            "--radii",
            "1..3",
            "--config",
            str(cfg),
            "--format",
            "csv",
        ],
    )
    assert [int(r["growth"]) for r in rows] == [1, 6, 19]


def test_exit_codes():
    # Unknown names are configuration errors; bad literals are input errors;
    # blown budgets are reported distinctly so callers can retry larger.
    assert main(["growth", "--name", "NOPE"]) == 2
    assert main(["length", "--name", "Z", "abc"]) == 1
    assert main(["growth", "--name", "L2", "--radii", "12", "--budget", "10"]) == 3


def test_too_many_radii_are_a_configuration_error(capsys):
    assert main(["growth", "--name", "Z", "--radii", "1..100000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: radius item '1..100000000' brings the list to 100000000")


def test_malformed_config_file(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[group A]\nkind = quantum\n")
    assert main(["growth", "--name", "A", "--config", str(cfg)]) == 2
