"""Experiment harness and CLI: config loading, runners, manifests, determinism."""

import argparse
import dataclasses
import json
import math
import os
import warnings
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nfmimo.cli import _FLAGS, _parse_int, _parse_int_list, main
from nfmimo.geometry import ScenarioConfig, make_partition
from nfmimo.harness import (
    EXPERIMENT_KINDS,
    SWEEP_KEYS,
    Experiment,
    RunManifest,
    _check_axis,
    load_config,
    run_experiment,
    validate_config,
)
from nfmimo.stats import CorrelationSeries

SMALL_CFG_JSON = json.dumps(
    {"P_h": 4, "P_v": 4, "Q": 2, "L_clusters": 2, "N_rays": 3}
)

RAYLEIGH_TABLE_M = {
    (2.4e9, 1.0, 0.1): 16,
    (2.4e9, 1.0, 2.0): 80,
    (2.4e9, 2.0, 2.0): 128,
    (5e9, 1.0, 0.1): 34,
    (5e9, 1.0, 2.0): 167,
    (5e9, 2.0, 2.0): 267,
}


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# Config loading


def test_validate_config_empty_gives_defaults():
    cfg = validate_config("")
    assert cfg.P_h == 64 and cfg.P_v == 64 and cfg.Q == 4
    assert validate_config("  \n ") == cfg
    assert validate_config("null") == cfg
    assert validate_config("{}") == cfg


def test_validate_config_rejections():
    with pytest.raises(ValueError, match="delta_T"):
        validate_config('{"delta_T": 0}')
    with pytest.raises(ValueError, match="not_a_field"):
        validate_config('{"not_a_field": 3}')
    with pytest.raises(ValueError, match="JSON"):
        validate_config("{bad json")
    with pytest.raises(ValueError, match="object"):
        validate_config("[1, 2]")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"P_h": 8, "P_v": 2, "K": 3.5}')
    cfg = load_config(path)
    assert (cfg.P_h, cfg.P_v, cfg.K) == (8, 2, 3.5)
    assert load_config(None).P_h == 64


def test_experiment_kind_validation(tmp_path):
    with pytest.raises(ValueError, match="unknown experiment kind"):
        Experiment(kind="nope", output=tmp_path)
    for kind in EXPERIMENT_KINDS:
        Experiment(kind=kind, output=tmp_path)


# ---------------------------------------------------------------------------
# Runners


def test_rayleigh_table_reference_boundaries(tmp_path):
    exp = Experiment(kind="rayleigh_table", output=tmp_path)
    manifest = run_experiment(exp, validate_config(""))
    header, rows = read_csv(tmp_path / "rayleigh_table.csv")
    assert header == ["frequency_hz", "width_m", "height_m", "rayleigh_m"]
    # six standard cells, then the configured-array row
    assert len(rows) == 7
    for row in rows[:6]:
        key = (float(row[0]), float(row[1]), float(row[2]))
        assert abs(float(row[3]) - RAYLEIGH_TABLE_M[key]) < 1.0
    assert rows[6][1] == "configured"
    assert "rayleigh_table.csv" in manifest.outputs


def test_error_vs_array_runner(tmp_path):
    exp = Experiment(
        kind="error_vs_array",
        sweep={"sides": [2, 4], "model": "planar"},
        seed=1,
        output=tmp_path,
    )
    run_experiment(exp, validate_config(SMALL_CFG_JSON))
    header, rows = read_csv(tmp_path / "error_vs_array__planar.csv")
    assert header[0] == "array_side"
    assert [float(r[0]) for r in rows] == [2.0, 4.0]
    assert all(math.isfinite(float(r[1])) for r in rows)


def test_error_vs_array_rejects_spherical(tmp_path):
    exp = Experiment(
        kind="error_vs_array", sweep={"model": "spherical"}, output=tmp_path
    )
    with pytest.raises(ValueError, match="reference"):
        run_experiment(exp, validate_config(SMALL_CFG_JSON))


def test_error_vs_subarray_runner(tmp_path):
    exp = Experiment(
        kind="error_vs_subarray",
        sweep={"p_max_list": [1, 2, 4]},
        output=tmp_path,
    )
    run_experiment(exp, validate_config(SMALL_CFG_JSON))
    header, rows = read_csv(tmp_path / "error_vs_subarray.csv")
    assert header[0] == "p_max"
    # the 1x1 tiling matches the reference exactly: -inf sentinel in-file
    assert rows[0][1] == "-inf"
    assert float(rows[1][1]) < float(rows[2][1])


def test_error_vs_subarray_rejects_oversized(tmp_path):
    exp = Experiment(
        kind="error_vs_subarray", sweep={"p_max_list": [8]}, output=tmp_path
    )
    with pytest.raises(ValueError, match="p_max"):
        run_experiment(exp, validate_config(SMALL_CFG_JSON))


def test_complexity_sweep_runner(tmp_path):
    exp = Experiment(
        kind="complexity_sweep",
        sweep={"p_max_list": [1, 2, 4, 8, 16, 30]},
        output=tmp_path,
    )
    run_experiment(exp, validate_config(""))
    header, rows = read_csv(tmp_path / "complexity_sweep.csv")
    assert header[0] == "p_max"
    totals = [float(r[1]) for r in rows]
    assert totals[0] == 2211840.0
    assert all(b <= a for a, b in zip(totals, totals[1:]))


def test_spatial_ccf_runner(tmp_path):
    exp = Experiment(
        kind="spatial_ccf",
        sweep={"max_offset": 3, "n_realizations": 2},
        seed=0,
        output=tmp_path,
    )
    run_experiment(exp, validate_config(SMALL_CFG_JSON))
    header, rows = read_csv(tmp_path / "spatial_ccf__spherical.csv")
    assert header[0] == "spacing_wavelengths"
    assert len(rows) == 4
    assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-12)


def test_temporal_acf_runner(tmp_path):
    exp = Experiment(
        kind="temporal_acf",
        sweep={"dt_max": 0.02, "points": 5, "n_realizations": 2},
        output=tmp_path,
    )
    run_experiment(exp, validate_config(SMALL_CFG_JSON))
    header, rows = read_csv(tmp_path / "temporal_acf__spherical.csv")
    assert header[0] == "dt_s"
    assert len(rows) == 5
    assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-12)
    assert all(float(r[3]) <= 1.0 + 1e-9 for r in rows)


def test_frequency_cf_runner(tmp_path):
    exp = Experiment(
        kind="frequency_cf",
        sweep={"df_max": 1e6, "points": 4, "n_realizations": 2, "model": "planar"},
        output=tmp_path,
    )
    run_experiment(exp, validate_config(SMALL_CFG_JSON))
    header, rows = read_csv(tmp_path / "frequency_cf__planar.csv")
    assert header[0] == "df_hz"
    assert len(rows) == 4
    assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-12)


def test_capacity_sweep_runner(tmp_path):
    exp = Experiment(
        kind="capacity_sweep",
        sweep={"snr_db_list": [0.0, 10.0], "n_realizations": 2, "phase_draws": 2},
        output=tmp_path,
    )
    run_experiment(exp, validate_config(SMALL_CFG_JSON))
    header, rows = read_csv(tmp_path / "capacity_sweep__spherical.csv")
    assert header[0] == "snr_db"
    caps = [float(r[1]) for r in rows]
    assert caps[1] > caps[0] > 0
    assert all(r[2] == "0.0" for r in rows)


def test_subarray_model_output_name(tmp_path):
    exp = Experiment(
        kind="spatial_ccf",
        sweep={"max_offset": 1, "n_realizations": 1, "model": "subarray:2x2"},
        output=tmp_path,
    )
    manifest = run_experiment(exp, validate_config(SMALL_CFG_JSON))
    assert "spatial_ccf__subarray_2x2.csv" in manifest.outputs


# ---------------------------------------------------------------------------
# Manifest and determinism


def test_manifest_contents(tmp_path):
    exp = Experiment(
        kind="complexity_sweep", sweep={"p_max_list": [1, 2]}, seed=11, output=tmp_path
    )
    manifest = run_experiment(exp, validate_config(SMALL_CFG_JSON))
    assert isinstance(manifest, RunManifest)
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert data["experiment"] == "complexity_sweep"
    assert data["seed"] == 11
    assert data["config"]["P_h"] == 4
    assert data["sweep"] == {"p_max_list": [1, 2]}
    assert data["wall_clock_s"] >= 0
    assert set(data["outputs"]) == {"complexity_sweep.csv"}
    digest = data["outputs"]["complexity_sweep.csv"]
    assert len(digest) == 64 and all(c in "0123456789abcdef" for c in digest)


def test_manifest_records_the_sweep_that_ran(tmp_path):
    cfg = validate_config(SMALL_CFG_JSON)
    acf = run_experiment(Experiment(kind="temporal_acf", sweep={"n_realizations": 2}, output=tmp_path / "acf"), cfg)
    assert acf.sweep == {"n_realizations": 2}
    assert acf.resolved_sweep == {"model": "spherical", "t": 0.0, "n_realizations": 2, "points": 101, "dt_max": 0.05}
    ccf = run_experiment(Experiment(kind="spatial_ccf", sweep={"n_realizations": 1}, output=tmp_path / "ccf"), cfg)
    assert ccf.resolved_sweep["max_offset"] == 3  # min(32, P_h - 1), from the config


def test_runs_are_reproducible(tmp_path):
    kinds = {
        "spatial_ccf": {"max_offset": 2, "n_realizations": 3},
        "temporal_acf": {"dt_max": 0.01, "points": 3, "n_realizations": 3},
        "frequency_cf": {"df_max": 1e6, "points": 3, "n_realizations": 3},
        "capacity_sweep": {"snr_db_list": [10.0], "n_realizations": 3},
    }
    cfg = validate_config(SMALL_CFG_JSON)
    for kind, sweep in kinds.items():
        out_a = tmp_path / f"{kind}_a"
        out_b = tmp_path / f"{kind}_b"
        m_a = run_experiment(Experiment(kind=kind, sweep=sweep, seed=3, output=out_a), cfg)
        m_b = run_experiment(Experiment(kind=kind, sweep=sweep, seed=3, output=out_b), cfg)
        assert m_a.outputs == m_b.outputs, kind
        for name in m_a.outputs:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# ---------------------------------------------------------------------------
# CLI


def test_cli_complexity_sweep(tmp_path, capsys):
    rc = main(
        [
            "complexity-sweep",
            "--p-max-list",
            "1,2,4",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "complexity_sweep.csv" in out and "manifest.json" in out
    assert (tmp_path / "complexity_sweep.csv").exists()


def test_cli_capacity_sweep_with_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(SMALL_CFG_JSON)
    rc = main(
        [
            "capacity-sweep",
            "--config",
            str(cfg_path),
            "--snr-db",
            "0,10",
            "--realizations",
            "2",
            "--phase-draws",
            "2",
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "run" / "capacity_sweep__spherical.csv").exists()


def test_cli_rayleigh_table(tmp_path):
    rc = main(["rayleigh-table", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "rayleigh_table.csv").exists()


@pytest.mark.parametrize("delta_T", [1e200, 1e-170], ids=["overflow", "underflow"])
def test_cli_rayleigh_table_refuses_a_configured_boundary_out_of_range(tmp_path, capsys, delta_T):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"delta_T": delta_T, "P_h": 2, "P_v": 2}))
    rc = main(["rayleigh-table", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "delta_T" in capsys.readouterr().err
    assert not (tmp_path / "run" / "rayleigh_table.csv").exists()


def test_cli_rayleigh_table_writes_a_point_source_boundary_of_zero(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"delta_T": 1e200, "P_h": 1, "P_v": 1}))
    assert main(["rayleigh-table", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    last = (tmp_path / "rayleigh_table.csv").read_text().splitlines()[-1]
    assert last.endswith(",configured,configured,0.0")


@pytest.mark.parametrize("text", ["1_6", "+4", "2,1 6", "4,-8", "\u0664"])
def test_cli_int_lists_take_digits_only(tmp_path, capsys, text):
    with pytest.raises(SystemExit) as exit_info:
        main(["complexity-sweep", "--p-max-list", text, "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "integer list" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("text", ["1_0", "+3", "\u0663"])
@pytest.mark.parametrize(
    "args",
    [
        ["rayleigh-table", "--seed"],
        ["temporal-acf", "--realizations"],
        ["temporal-acf", "--points"],
        ["spatial-ccf", "--max-offset"],
        ["capacity-sweep", "--realizations", "1", "--phase-draws"],
    ],
    ids=["seed", "realizations", "points", "max-offset", "phase-draws"],
)
def test_cli_int_flags_take_digits_only(tmp_path, capsys, args, text):
    # int() ran "--seed 1_0" as seed 10 and "--points +3" as 3 points
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(SMALL_CFG_JSON)
    with pytest.raises(SystemExit) as exit_info:
        main([*args, text, "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert exit_info.value.code == 2
    assert "digits 0-9" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_int_flags_take_one_leading_minus():
    assert _parse_int("-1") == -1 and _parse_int("0") == 0 and _parse_int("12") == 12
    for text in ("--1", "-+1", "- 1", "", "-"):
        with pytest.raises(argparse.ArgumentTypeError, match="digits 0-9"):
            _parse_int(text)


@pytest.mark.parametrize(
    "args",
    [
        ["capacity-sweep", "--snr-db", "1_0"],
        ["capacity-sweep", "--snr-db", "0,1_0"],
        ["capacity-sweep", "--t", "1_0e-3"],
        ["spatial-ccf", "--dt", "1_0e-3"],
        ["temporal-acf", "--points", "3", "--dt-max", "1_0e-3"],
        ["frequency-cf", "--points", "3", "--df-max", "1_0e6"],
    ],
    ids=["snr-db", "snr-db-list", "t", "dt", "dt-max", "df-max"],
)
def test_cli_real_flags_refuse_underscores(tmp_path, capsys, args):
    # float() ran "--snr-db 1_0" at 10 dB and "--t 1_0e-3" at t = 0.01 s
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(SMALL_CFG_JSON)
    with pytest.raises(SystemExit) as exit_info:
        main([*args, "--realizations", "1", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert exit_info.value.code == 2
    assert "expected a" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_run_experiment_takes_a_model_only_as_text(tmp_path):
    # str() read Path("planar") as the planar model, and the manifest could not record it after the CSV was written.
    exp = Experiment(kind="capacity_sweep", sweep={"model": Path("planar"), "n_realizations": 1}, output=tmp_path / "run")
    with pytest.raises(ValueError, match="sweep key 'model'"):
        run_experiment(exp, validate_config(SMALL_CFG_JSON))
    assert not (tmp_path / "run").exists()


def test_cli_flags_cover_every_sweep_key_but_the_rayleigh_grid():
    keys = {key for table in SWEEP_KEYS.values() for key in table}
    assert set(_FLAGS) == keys - {"frequencies_hz", "apertures_m"}


def test_cli_int_lists_allow_spaces_around_commas():
    assert _parse_int_list("8, 16") == [8, 16]
    assert _parse_int_list(" 1 ,2,") == [1, 2]


def test_cli_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    lines = [line.strip() for line in out.splitlines()]
    for kind in EXPERIMENT_KINDS:  # each on its own line, followed by its help text
        assert any(line.startswith(kind.replace("_", "-") + " ") for line in lines)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_cli_subcommand_help_shows_every_flag_with_its_default(capsys, monkeypatch, kind):
    monkeypatch.setenv("COLUMNS", "400")  # one help line per flag
    with pytest.raises(SystemExit) as exc:
        main([kind.replace("_", "-"), "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--seed", "--out", "--realizations"):
        assert flag in out
    for key, (_, default) in SWEEP_KEYS[kind].items():
        if key not in _FLAGS:
            continue
        flag, parse, text = _FLAGS[key]
        if parse is None:  # a switch, off unless given
            assert f"{flag}  " in out and text in out
        elif callable(default):
            assert f"{text} (default set by the config)" in out
        else:
            shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
            assert f"{text} (default {shown})" in out


@pytest.mark.parametrize("argv", [["not-a-command"], ["not-a-command", "--seed", "1"], [], ["--seed", "1"]])
def test_cli_without_a_known_command_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: nfmimo" in capsys.readouterr().err


def test_cli_refuses_another_subcommands_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rayleigh-table", "--snr-db", "10", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --snr-db" in capsys.readouterr().err


def test_cli_error_paths(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"delta_T": 0}')
    rc = main(
        ["temporal-acf", "--config", str(bad_cfg), "--out", str(tmp_path)]
    )
    assert rc == 2
    assert "error" in capsys.readouterr().err

    missing = tmp_path / "missing.json"
    rc = main(["temporal-acf", "--config", str(missing), "--out", str(tmp_path)])
    assert rc == 2

    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_cli_seeded_runs_identical(tmp_path):
    for sub in ("a", "b"):
        rc = main(
            [
                "spatial-ccf",
                "--config",
                "/dev/null",
                "--max-offset",
                "2",
                "--realizations",
                "2",
                "--seed",
                "7",
                "--out",
                str(tmp_path / sub),
            ]
        )
        assert rc == 0
    name = "spatial_ccf__spherical.csv"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("sub", ["complexity-sweep", "rayleigh-table", "temporal-acf", "capacity-sweep"])
def test_cli_rejects_nonpositive_realizations(tmp_path, capsys, sub):
    for bad in ("0", "-5"):
        rc = main([sub, "--realizations", bad, "--out", str(tmp_path)])
        assert rc == 2
        assert "--realizations" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("sub", ["complexity-sweep", "spatial-ccf"])
def test_cli_rejects_negative_seed(tmp_path, capsys, sub):
    rc = main([sub, "--seed", "-1", "--realizations", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, name",
    [
        ('{"f_c": NaN, "delta_T": 0.03, "delta_R": 0.03}', "f_c"),
        ('{"c": Infinity}', "c"),
        ('{"K": true}', "K"),
    ],
)
def test_cli_rejects_bad_config_numbers(tmp_path, capsys, text, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    rc = main(["rayleigh-table", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert f"{name} must" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Goldens: small-config sweeps recorded before the sweep-axis reuse

DATA = Path(__file__).parent / "data"
GOLDEN_CFG_JSON = json.dumps({"P_h": 8, "P_v": 8, "Q": 2, "L_clusters": 2, "N_rays": 5})


def _assert_csv_close(path, golden):
    header, rows = read_csv(path)
    g_header, g_rows = read_csv(golden)
    assert header == g_header and len(rows) == len(g_rows)
    for row, g_row in zip(rows, g_rows):
        assert row[0] == g_row[0] and row[4:] == g_row[4:]
        for value, g_value in zip(row[1:4], g_row[1:4]):
            assert float(value) == pytest.approx(float(g_value), rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "args, name, golden",
    [
        (
            ["capacity-sweep", "--realizations", "2", "--snr-db", "0,10,30", "--phase-draws", "2"],
            "capacity_sweep__spherical.csv",
            "capacity_sweep_small.csv",
        ),
        (["error-vs-subarray", "--p-max-list", "1,2,3,4,8"], "error_vs_subarray.csv", "error_vs_subarray_small.csv"),
    ],
)
def test_sweep_golden(tmp_path, args, name, golden):
    # Goldens: config GOLDEN_CFG_JSON, seed 3, recorded with one matrix build per SNR point
    # and one reference build per tiling.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(GOLDEN_CFG_JSON)
    rc = main([*args, "--config", str(cfg_path), "--seed", "3", "--out", str(tmp_path / "run")])
    assert rc == 0
    _assert_csv_close(tmp_path / "run" / name, DATA / golden)


# ---------------------------------------------------------------------------
# The sweep each kind records


SPATIAL_SWEEP = {"model": "spherical", "dq": 0, "dt": 0.0, "t": 0.0, "n_realizations": 1}


@pytest.mark.parametrize(
    "args, sweep, outputs",
    [
        (["rayleigh-table"], {}, ["rayleigh_table.csv"]),
        (
            ["error-vs-array", "--model", "subarray:4x4", "--sides", "2,4"],
            {"sides": [2, 4], "model": "subarray:4x4", "t": 0.0},
            ["error_vs_array__subarray_4x4.csv"],
        ),
        (["error-vs-subarray", "--p-max-list", "1,2"], {"p_max_list": [1, 2], "t": 0.0}, ["error_vs_subarray.csv"]),
        (["complexity-sweep", "--p-max-list", "1,2"], {"p_max_list": [1, 2]}, ["complexity_sweep.csv"]),
        (["spatial-ccf"], SPATIAL_SWEEP, ["spatial_ccf__spherical.csv"]),
        (["spatial-ccf", "--max-offset", "2"], {**SPATIAL_SWEEP, "max_offset": 2}, ["spatial_ccf__spherical.csv"]),
        (
            ["temporal-acf", "--points", "3"],
            {"model": "spherical", "dt_max": 0.05, "points": 3, "t": 0.0, "n_realizations": 1},
            ["temporal_acf__spherical.csv"],
        ),
        (
            ["frequency-cf", "--points", "3"],
            {"model": "spherical", "df_max": 1e7, "points": 3, "t": 0.0, "n_realizations": 1},
            ["frequency_cf__spherical.csv"],
        ),
        (
            ["capacity-sweep", "--snr-db", "0,10"],
            {
                "model": "spherical",
                "snr_db_list": [0.0, 10.0],
                "normalize_each": False,
                "phase_draws": 1,
                "t": 0.0,
                "n_realizations": 1,
            },
            ["capacity_sweep__spherical.csv"],
        ),
    ],
)
def test_cli_manifest_sweep_and_output_names(tmp_path, args, sweep, outputs):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(SMALL_CFG_JSON)
    out = tmp_path / "run"
    assert main([*args, "--config", str(cfg_path), "--realizations", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sweep"] == sweep
    assert sorted(manifest["outputs"]) == outputs
    assert sorted(os.listdir(out)) == sorted([*outputs, "manifest.json"])
    # The resolved sweep holds every key, agrees with the given ones, and given as the sweep reruns the same curves.
    kind, resolved = args[0].replace("-", "_"), manifest["resolved_sweep"]
    assert sorted(resolved) == sorted(SWEEP_KEYS[kind]) and {key: resolved[key] for key in sweep} == sweep
    again = tmp_path / "again"
    rerun = run_experiment(Experiment(kind=kind, sweep=resolved, output=again), load_config(cfg_path))
    assert rerun.outputs == manifest["outputs"]
    assert json.loads((again / "manifest.json").read_text())["resolved_sweep"] == resolved


@pytest.mark.parametrize(
    "kind, sweep, key",
    [
        ("temporal_acf", {"points": None}, "points"),  # used to raise TypeError
        ("capacity_sweep", {"n_realizations": float("inf")}, "n_realizations"),  # used to raise OverflowError
        ("capacity_sweep", {"n_realizations": 2.7}, "n_realizations"),  # used to run 2 realizations
        ("capacity_sweep", {"normalize_each": "false"}, "normalize_each"),  # used to run as True
        ("spatial_ccf", {"max_offset": True}, "max_offset"),
        ("error_vs_subarray", {"p_max_list": [1, 2.5]}, "p_max_list"),
        ("capacity_sweep", {"t": True}, "t"),  # used to run at t = 1.0 s
        ("capacity_sweep", {"t": "0.5"}, "t"),  # used to run at t = 0.5 s
        ("capacity_sweep", {"snr_db_list": "10"}, "snr_db_list"),  # used to run at 1 and 0 dB
        ("capacity_sweep", {"snr_db_list": [True]}, "snr_db_list"),  # used to run at 1 dB
        ("rayleigh_table", {"frequencies_hz": [0.0]}, "frequencies_hz"),  # used to raise ZeroDivisionError
        ("rayleigh_table", {"frequencies_hz": "10"}, "frequencies_hz"),  # used to raise ZeroDivisionError
        ("rayleigh_table", {"frequencies_hz": [-5e9]}, "frequencies_hz"),
        ("rayleigh_table", {"apertures_m": [["12"]]}, "apertures_m"),  # used to raise IndexError
        ("rayleigh_table", {"apertures_m": ["12"]}, "apertures_m"),  # used to run as a 1 m x 2 m aperture
        ("rayleigh_table", {"apertures_m": [[float("inf"), 1.0]]}, "apertures_m"),  # used to write inf
        ("rayleigh_table", {"apertures_m": [[1.0, 2.0, 3.0]]}, "apertures_m"),
        ("rayleigh_table", {"apertures_m": [[0.0, 1.0]]}, "apertures_m"),
        ("rayleigh_table", {"apertures_m": [[1e200, 1.0]]}, "apertures_m"),  # the boundary overflows to inf
        ("rayleigh_table", {"apertures_m": [[1e-170, 1e-170]]}, "apertures_m"),  # used to write a 0.0 boundary
        ("rayleigh_table", {"frequencies_hz": [1e-300]}, "frequencies_hz"),  # used to write a 0.0 boundary
    ],
)
def test_run_experiment_rejects_non_integer_and_non_bool_sweep_keys(tmp_path, kind, sweep, key):
    cfg = validate_config(SMALL_CFG_JSON)
    with pytest.raises(ValueError, match=f"'{key}'"):
        run_experiment(Experiment(kind=kind, sweep=sweep, output=tmp_path), cfg)
    assert os.listdir(tmp_path) == []


def test_run_experiment_refuses_an_unknown_sweep_key(tmp_path):
    # "dtmax" used to run at the default dt_max of 0.05 s while the manifest recorded dtmax: 0.5
    cfg = validate_config(SMALL_CFG_JSON)
    sweep = {"dtmax": 0.5, "points": 3, "n_realizations": 1}
    exp = Experiment(kind="temporal_acf", sweep=sweep, output=tmp_path / "run")
    with pytest.raises(ValueError, match="'dtmax'"):
        run_experiment(exp, cfg)
    assert not (tmp_path / "run").exists()


def test_run_experiment_reads_integral_floats_as_integers(tmp_path):
    cfg = validate_config(SMALL_CFG_JSON)
    for name, p_max_list in (("int", [1, 2]), ("float", [1.0, 2.0])):
        exp = Experiment(kind="complexity_sweep", sweep={"p_max_list": p_max_list}, output=tmp_path / name)
        run_experiment(exp, cfg)
    csv_bytes = [(tmp_path / name / "complexity_sweep.csv").read_bytes() for name in ("int", "float")]
    assert csv_bytes[0] == csv_bytes[1]


# ---------------------------------------------------------------------------
# Non-finite sweep numbers


@pytest.mark.parametrize(
    "args, key",
    [
        (["capacity-sweep", "--snr-db", "0,1e308"], "snr_db_list"),
        (["capacity-sweep", "--snr-db", "nan"], "snr_db_list"),
        (["capacity-sweep", "--snr-db=-inf"], "snr_db_list"),
        (["capacity-sweep", "--t", "nan"], "t"),
        (["error-vs-subarray", "--t", "inf"], "t"),
        (["error-vs-array", "--t", "nan", "--sides", "2"], "t"),
        (["spatial-ccf", "--dt", "nan"], "dt"),
        (["temporal-acf", "--dt-max", "nan"], "dt_max"),
        (["frequency-cf", "--df-max", "inf"], "df_max"),
    ],
)
def test_cli_rejects_non_finite_sweep_numbers(tmp_path, capsys, args, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(SMALL_CFG_JSON)
    rc = main([*args, "--config", str(cfg_path), "--realizations", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize(
    "args, name",
    [
        # 2*pi*df*tau overflows to inf, which used to turn every nonzero-offset row into nan
        (["frequency-cf", "--df-max", "1e308"], "df"),
        # the receiver's squared distance overflows, which used to raise OverflowError
        (["temporal-acf", "--t", "1e300"], "t"),
    ],
)
def test_cli_rejects_finite_sweep_numbers_that_overflow(tmp_path, capsys, args, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(SMALL_CFG_JSON)
    out = tmp_path / "run"
    rc = main([*args, "--config", str(cfg_path), "--realizations", "1", "--points", "3", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{name} " in err and "Traceback" not in err
    assert not list(out.glob("*.csv"))


# Flags that keep each kind's run small on SMALL_CFG_JSON.
SMALL_RUN_FLAGS = {
    "temporal-acf": ["--points", "3", "--realizations", "2"],
    "spatial-ccf": ["--max-offset", "2", "--realizations", "2"],
    "capacity-sweep": ["--realizations", "1"],
    "error-vs-subarray": ["--p-max-list", "1,2"],
    "error-vs-array": ["--sides", "2,3"],
}


@pytest.mark.parametrize("kind", list(SMALL_RUN_FLAGS))
@pytest.mark.parametrize("receive", [{"delta_R": 1e160}, {"delta_R": 1e308, "Q": 8}], ids=["long", "beyond-float-range"])
def test_cli_names_delta_r_when_the_receive_phase_overflows(tmp_path, capsys, kind, receive):
    # Squares of ~1e160 m displacements overflowed in the receive steering, which used to write NaN
    # correlation CSVs or fail as "H contains non-finite entries", naming no field; element positions
    # beyond the float range failed as "Vec3.x must be finite".
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**json.loads(SMALL_CFG_JSON), **receive}))
    out = tmp_path / "run"
    rc = main([kind, *SMALL_RUN_FLAGS[kind], "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"delta_R = {receive['delta_R']!r} m" in err and "Traceback" not in err
    assert not list(out.glob("*.csv"))


def test_cli_names_the_receiver_travel_when_the_doppler_phase_overflows(tmp_path, capsys):
    # t = 5e152 s keeps the path length finite, but its Doppler weight times the travel overflowed to NaN.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(SMALL_CFG_JSON)
    out = tmp_path / "run"
    rc = main(["temporal-acf", "--dt-max", "1e153", "--points", "3", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert "v_R*t = 2.5e+153 m" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("key", ["D_0", "H_0", "delta_T"])
def test_cli_names_the_geometry_when_the_direct_path_overflows(tmp_path, capsys, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**json.loads(SMALL_CFG_JSON), key: 1e160}))
    out = tmp_path / "run"
    rc = main(["temporal-acf", "--points", "3", "--realizations", "1", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert f"{key} = 1e+160 m" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_cli_lag_overflow_message_prints_python_floats_and_warns_nothing(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(SMALL_CFG_JSON)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["temporal-acf", "--dt-max", "1e308", "--points", "3", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "dt_max = 1e+308 s takes the receiver from t = 0.0 s" in err and "np.float64" not in err


@pytest.mark.parametrize("kind", ["temporal-acf", "capacity-sweep"])
def test_cli_names_t_when_the_receiver_travel_overflows(tmp_path, capsys, kind):
    # v_R * t overflows to inf, which used to fail as "Vec3.x must be finite"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(SMALL_CFG_JSON)
    out = tmp_path / "run"
    rc = main([kind, "--t", "1e308", "--config", str(cfg_path), "--realizations", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "t = 1e+308 s" in err and "Vec3" not in err and "Traceback" not in err
    assert not list(out.glob("*.csv"))


# ---------------------------------------------------------------------------
# Atomic outputs: a failed write leaves the previous file and no temp file


def test_series_csv_write_is_atomic(tmp_path):
    def series(lags):
        return CorrelationSeries(
            axis_name="x",
            lag_axis=np.array(lags, dtype=object),
            values=np.ones(len(lags), dtype=complex),
            t=0.0,
            model_label="planar",
            n_realizations=1,
            seed=0,
        )

    path = tmp_path / "s.csv"
    series([0.0, 1.0]).to_csv(path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        series([0.0, "not a number"]).to_csv(path)  # fails after the first row
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["s.csv"]


def test_manifest_write_is_atomic(tmp_path):
    def manifest(config):
        return RunManifest("complexity_sweep", config, {}, {}, "0", 0, 0.0, {})

    path = tmp_path / "manifest.json"
    manifest({"P_h": 4}).to_json(path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        manifest({"P_h": 4, "Q": object()}).to_json(path)  # fails mid-document
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["manifest.json"]


def test_failed_run_keeps_previous_outputs(tmp_path):
    cfg = validate_config(SMALL_CFG_JSON)
    run_experiment(Experiment(kind="rayleigh_table", output=tmp_path), cfg)
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert set(before) == {"rayleigh_table.csv", "manifest.json"}
    bad = Experiment(kind="rayleigh_table", sweep={"apertures_m": [[1.0, 0.1], [1.0, "x"]]}, output=tmp_path)
    with pytest.raises(ValueError):
        run_experiment(bad, cfg)  # refused before the table is written
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


@pytest.mark.parametrize("args", [["capacity-sweep", "--realizations", "1"], ["error-vs-subarray", "--p-max-list", "1,2"]])
def test_cli_refuses_an_array_over_the_matrix_budget(tmp_path, capsys, args):
    # 2000 x 2000 elements with 100 rays would need 6.2 GiB for the (D*Q, P) phase-draw stack plus
    # the direct matrix; the budget check must fire before any P-sized array exists (the element
    # index and tile arrays of matrix_parts alone would take 160 MB).
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"P_h": 2000, "P_v": 2000}))
    tracemalloc.start()
    try:
        rc = main([*args, "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert "P_h x P_v = 2000x2000" in err and "MATRIX_BUDGET_BYTES" in err
    assert peak < 16 * 2**20
    assert not (tmp_path / "run" / "manifest.json").exists()


# Flags that keep each kind's sweep small on a large array; every kind also gets --realizations 1.
_SMALL_SWEEPS = {"spatial_ccf": ["--max-offset", "2"], "temporal_acf": ["--points", "3"], "frequency_cf": ["--points", "3"]}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_cli_runs_every_kind_on_a_large_array_without_a_large_allocation(tmp_path, capsys, kind):
    # At 2000 x 2000 elements the kinds that build a matrix refuse it through the budget, and the
    # others hold nothing that grows with P_h * P_v: a partition is one midpoint per tile column and row.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"P_h": 2000, "P_v": 2000}))
    args = [kind.replace("_", "-"), "--realizations", "1", *_SMALL_SWEEPS.get(kind, [])]
    make_partition.cache_clear()  # a partition cached by an earlier test would hide its allocation
    tracemalloc.start()
    try:
        rc = main([*args, "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    if kind in ("capacity_sweep", "error_vs_subarray"):
        assert rc == 2 and "MATRIX_BUDGET_BYTES" in err
    else:
        assert rc == 0, err
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "config, args, key",
    [
        ({}, ["temporal-acf", "--points", "1000000000"], "points"),
        ({}, ["frequency-cf", "--points", "1000000000"], "points"),
        ({"P_h": 2000001, "P_v": 1}, ["spatial-ccf", "--max-offset", "2000000"], "max_offset"),
    ],
    ids=["temporal-acf", "frequency-cf", "spatial-ccf"],
)
def test_cli_refuses_a_correlation_axis_over_the_matrix_budget(tmp_path, capsys, config, args, key):
    # Each field's (axis points, L_clusters * N_rays) phasors would need far more than the budget;
    # the axis is refused before it is built.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    tracemalloc.start()
    try:
        rc = main([*args, "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert f"sweep key {key!r}" in err and "MATRIX_BUDGET_BYTES" in err
    assert peak < 16 * 2**20
    assert not list((tmp_path / "run").glob("*"))


def test_correlation_axis_budget_counts_each_fields_phasors():
    # 1 KiB per axis point, whatever the ray count: 2**30 / 1024 = 1048576 axis points fit in the budget.
    _check_axis("points", 700000)
    _check_axis("points", 1048576)
    with pytest.raises(ValueError, match="sweep key 'points' gives 1048577 axis points"):
        _check_axis("points", 1048577)


FIELD_RUN_FLAGS = {**SMALL_RUN_FLAGS, "frequency-cf": ["--points", "3", "--realizations", "2"]}


@pytest.mark.parametrize("kind", list(FIELD_RUN_FLAGS))
def test_cli_names_r_max_when_a_scatterer_is_too_far_out(tmp_path, capsys, kind):
    # Squared ray distances of ~1e160 m overflowed, which used to fail as "H contains non-finite entries"
    # or blame the carrier or the frequency offsets for a non-finite delay phase.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**json.loads(SMALL_CFG_JSON), "r_max": 1e160}))
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([kind, *FIELD_RUN_FLAGS[kind], "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "r_max = 1e+160 m" in err and "Traceback" not in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("kind", list(FIELD_RUN_FLAGS))
def test_cli_runs_a_far_but_finite_scatterer_range(tmp_path, kind):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**json.loads(SMALL_CFG_JSON), "r_max": 1e150}))
    out = tmp_path / "run"
    rc = main([kind, *FIELD_RUN_FLAGS[kind], "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    for path in out.glob("*.csv"):  # a 1x1 tiling's error is -inf by design, so only NaN is refused
        rows = path.read_text().splitlines()[1:]
        assert rows and not any(math.isnan(float(cell)) for row in rows for cell in row.split(",")[:4])


@pytest.mark.parametrize("entry", [0.0, 1e-308])
def test_cli_refuses_a_model_error_against_a_zero_or_tiny_reference(tmp_path, capsys, monkeypatch, entry):
    # A zero reference entry used to write nan and inf rows and exit 0; entries of 1e-308 ended in a traceback.
    import nfmimo.stats as stats

    real = stats.channel_matrix

    def reference(*args, **kwargs):
        realization = real(*args, **kwargs)
        return dataclasses.replace(realization, H=np.full_like(realization.H, entry))

    monkeypatch.setattr(stats, "channel_matrix", reference)
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "run"
    cfg_path.write_text(SMALL_CFG_JSON)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["error-vs-subarray", "--p-max-list", "1,2,4", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "the model error of subarray:2x2 is not finite" in err and "Traceback" not in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("kind", list(SMALL_RUN_FLAGS))
def test_cli_names_f_when_a_delay_phase_overflows(tmp_path, capsys, kind):
    # capacity-sweep and the error kinds formed -2*pi*f_c*tau inline, which used to fail as
    # "H contains non-finite entries" after numpy overflow warnings.
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "run"
    cfg_path.write_text(json.dumps({**json.loads(SMALL_CFG_JSON), "f_c": 1e170, "D_0": 1e150}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([kind, *SMALL_RUN_FLAGS[kind], "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "f = 1e+170 Hz gives a non-finite delay phase" in err and "Traceback" not in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "args, named",
    [
        (["temporal-acf", "--dt-max", "1e300", "--points", "3"], "dt_max = 1e+300 s"),
        (["spatial-ccf", "--dt", "1e300", "--max-offset", "2"], "dt = 1e+300 s"),
    ],
    ids=["temporal-acf", "spatial-ccf"],
)
def test_cli_names_the_lag_that_takes_the_receiver_out_of_range(tmp_path, capsys, args, named):
    # Used to name the time t + dt of the first lag out of range ("t = 5e+299 s" for temporal-acf).
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "run"
    cfg_path.write_text(SMALL_CFG_JSON)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*args, "--realizations", "1", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert f"{named} takes the receiver from t = 0.0 s beyond a finite direct path" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("p_max_list, builds", [("1", 0), ("1,1", 0), ("1,2", 1), ("2,1,4", 1)])
def test_model_error_builds_the_reference_only_for_a_tiling_that_reads_it(tmp_path, monkeypatch, p_max_list, builds):
    # A 1x1 tiling's error is -inf without a sum, so a sweep of 1x1 tilings alone needs no reference.
    import nfmimo.stats as stats

    calls = []
    real = stats.channel_matrix
    monkeypatch.setattr(stats, "channel_matrix", lambda *args, **kwargs: calls.append(args[2]) or real(*args, **kwargs))
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "run"
    cfg_path.write_text(SMALL_CFG_JSON)
    assert main(["error-vs-subarray", "--p-max-list", p_max_list, "--config", str(cfg_path), "--out", str(out)]) == 0
    assert [model.label for model in calls] == ["spherical"] * builds
    rows = (out / "error_vs_subarray.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[1]) == -math.inf for row in rows] == [p == "1" for p in p_max_list.split(",")]


@pytest.mark.parametrize(
    "args, named, cause",
    [
        (
            ["temporal-acf", "--dt-max", "1e153", "--points", "3"],
            "dt_max = 1e+153 s takes the receiver from t = 0.0 s beyond a finite direct path or receive phase: ",
            "v_R*t = 2.5e+153 m put receive element 1 at t = 5e+152 s",
        ),
        (
            ["spatial-ccf", "--dt", "1e153", "--max-offset", "2"],
            "dt = 1e+153 s takes the receiver from t = 0.0 s beyond a finite direct path or receive phase: ",
            "v_R*t = 5e+153 m put receive element 1 at t = 1e+153 s",
        ),
        (["spatial-ccf", "--t", "0.005", "--dt", "-0.01", "--max-offset", "2"], "dt must be finite and >= -0.005", ""),
    ],
    ids=["temporal-acf", "spatial-ccf", "spatial-ccf-negative"],
)
def test_cli_names_the_lag_that_overflows_the_receive_phase_or_precedes_t_0(tmp_path, capsys, args, named, cause):
    # Used to name only the time reached, "receive element 1 at t = 5e+152 s", or "t must be >= 0, got -0.005".
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "run"
    cfg_path.write_text(SMALL_CFG_JSON)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*args, "--realizations", "1", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"nfmimo: error: {named}") and cause in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("kind", [kind.replace("_", "-") for kind, keys in SWEEP_KEYS.items() if "t" in keys])
def test_cli_refuses_a_negative_t_for_every_kind(tmp_path, capsys, kind):
    # frequency-cf used to run at t = -1 s and exit 0.
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "run"
    cfg_path.write_text(SMALL_CFG_JSON)
    assert main([kind, "--t", "-1", "--realizations", "1", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "sweep key 't' must be finite and >= 0, got -1.0" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_rayleigh_table_writes_numpy_config_floats_as_python_floats(tmp_path):
    # The configured row used to read np.float64(5000000000.0),configured,configured,np.float64(237.97525316039997).
    for name, number in (("python", float), ("numpy", np.float64)):
        cfg = ScenarioConfig(f_c=number(5e9), D_0=number(50.0))
        run_experiment(Experiment(kind="rayleigh_table", output=tmp_path / name), cfg)
    python, numpy_ = ((tmp_path / name / "rayleigh_table.csv").read_bytes() for name in ("python", "numpy"))
    assert numpy_ == python and b"np." not in python
