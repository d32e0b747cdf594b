"""Command-line interface: subcommands, report formats, and exit codes."""

from __future__ import annotations

import csv
import io
import json

import pytest

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


def test_control_kernel_mode(capsys):
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
    (row,) = rows
    assert row["base_control"] == "11"
    assert row["predicted"] == "2314"
    assert int(row["measured"]) <= 2314
    assert row["ok"] == "True"


# -- cube ----------------------------------------------------------------------


def test_cube_certificate(capsys):
    payload = run_json(capsys, ["cube", "--name", "W2", "--n", "2", "--r", "2"])
    cert = payload["results"]
    assert cert["schema"] == "kernel-cube-certificate/1"
    assert cert["k"] == 2
    assert len(cert["pairs"]) == 36
    assert all(p["separation"] >= p["l1"] for p in cert["pairs"])


# -- lattice -------------------------------------------------------------------


def test_lattice_exhaustive(capsys):
    payload = run_json(capsys, ["lattice", "--n", "2", "--k", "1", "--parts", "2"])
    res = payload["results"]
    assert res["assignments"] == 81
    assert res["hypothesis_count"] == res["witness_count"] == 31
    assert res["failures"] == []


def test_lattice_sampled(capsys):
    payload = run_json(
        capsys,
        ["lattice", "--n", "2", "--k", "2", "--parts", "2", "--samples", "40"],
    )
    res = payload["results"]
    assert res["mode"] == "sampled"
    assert res["assignments"] == 40
    assert res["failures"] == []


def test_lattice_sampled_rejects_more_parts_than_coordinates(capsys):
    rc = main(["lattice", "--n", "1", "--k", "2", "--parts", "2", "--samples", "200"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "at most 1 parts" in captured.err


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


def test_cache_dir_persists_balls(tmp_path, capsys):
    rc = main(
        [
            "growth",
            "--name",
            "Z",
            "--radii",
            "1..3",
            "--cache-dir",
            str(tmp_path),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "manifest.json").exists()


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


def test_malformed_config_file(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[group A]\nkind = quantum\n")
    assert main(["growth", "--name", "A", "--config", str(cfg)]) == 2
