"""Command-line interface: output formats, metadata, config handling,
exit codes, and the packaged entry points."""

import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

from spinsense import (ExperimentFailed, FieldParams, NoiseSpec, SweepConfig, TimeGrid,
                       build_space, collective_operator, full_gkls_reference, ghz_state,
                       husimi_map, simultaneous_probe, sweep_time)
from spinsense import dynamics
from spinsense.cli import _COMMANDS, _build_meta, _build_parser, _resolve, main
from spinsense.experiments import _DEFAULT_AXIS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_space_info_json(capsys):
    code, out, _ = run_cli(capsys, "space-info", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["n-particles"] == 3
    assert doc["dimension"] == 6
    assert doc["product-dimension"] == 8
    assert doc["sectors"] == [
        {"j": 1.5, "dim": 4, "offset": 0, "multiplicity": 1},
        {"j": 0.5, "dim": 2, "offset": 4, "multiplicity": 2},
    ]
    meta = doc["meta"]
    assert meta["command"] == "space-info"
    assert len(meta["config-sha256"]) == 64


def test_evolve_reports_moments_and_split(capsys):
    code, out, _ = run_cli(capsys, "evolve", "--n", "2", "--t", "1.5",
                           "--gamma", "0.1", "--probe", "ghz-z")
    assert code == 0
    doc = json.loads(out)
    assert doc["split-valid"] is True
    assert abs(doc["trace"] - 1.0) < 1e-12
    assert 0.0 < doc["purity"] <= 1.0
    assert doc["meta"]["gamma-assumed"] is False


def test_sweep_time_csv_structure_and_reruns(tmp_path, capsys):
    args = ["sweep-time", "--n", "4", "--gamma", "0.1",
            "--t-grid", "10,0.1,20"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(first))[0] == 0
    assert run_cli(capsys, *args, "--out", str(second))[0] == 0
    assert filecmp.cmp(first, second, shallow=False)

    lines = first.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# spinsense-version = ") for ln in meta)
    assert any(ln.startswith("# config-sha256 = ") for ln in meta)
    assert any(ln == "# gamma-assumed = false" for ln in meta)
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "t,i_sim"
    assert len(body) == 1 + 10
    assert any(ln.startswith("# t_opt = ") for ln in lines)
    assert any(ln.startswith("# i_min = ") for ln in lines)
    assert any(ln.startswith("# boundary = ") for ln in lines)


def test_scan_worker_pool_output_is_identical(tmp_path, capsys):
    args = ["scan-n", "--n-list", "2,4", "--gamma", "0.1",
            "--t-grid", "8,0.1,20"]
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    assert run_cli(capsys, *args, "--workers", "1", "--out", str(serial))[0] == 0
    assert run_cli(capsys, *args, "--workers", "2", "--out", str(pooled))[0] == 0
    assert filecmp.cmp(serial, pooled, shallow=False)
    lines = serial.read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "n,scenario,kind,t_opt,i_min,boundary"
    assert lines[-1] == "# dropped = none"


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "bogus": 1}))
    code, _, err = run_cli(capsys, "space-info", "--config", str(cfg))
    assert code == 2
    assert "bogus" in err
    # seed was a no-op option and is no longer a config key
    cfg.write_text(json.dumps({"n": 3, "t": 0.5, "seed": 0}))
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg))
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize("command, values, key", [
    ("sweep-time", {"n": 2, "kind": "foo"}, "kind"),
    ("sweep-time", {"n": 2, "scenario": "both"}, "scenario"),
    ("evolve", {"n": 2, "t": 0.5, "kind": "foo"}, "kind"),
    ("space-info", {"n": 2, "verbose": "yes"}, "verbose"),
    ("space-info", {"n": 2, "verbose": True}, "verbose"),
    ("space-info", {"n": 2.7}, "n"),
    ("space-info", {"n": True}, "n"),
    ("scan-n", {"n-list": [2], "workers": 1.9}, "workers"),
    ("fit", {"in": "scan.csv", "n-min": 2.5}, "n-min"),
    ("sweep-time", {"n": 2, "t-grid": [2.5, 0.1, 10.0]}, "t-grid"),
    ("sweep-time", {"n": 2, "phi": [1, 2]}, "phi"),
])
def test_config_file_values_validated_like_flags(tmp_path, capsys, command, values, key):
    # a bad config value is a bad argument (exit 2) that names its key, never
    # a traceback or a silently truncated number
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith(f"spinsense: InvalidArgument: config key {key!r}: ")


@pytest.mark.parametrize("command, key, flag", [
    ("sweep-time", "workers", ["--workers", "2"]),
    ("verify", "verbose", ["--verbose"]),
], ids=["sweep-time-workers", "verify-verbose"])
def test_options_a_command_would_ignore_are_refused(tmp_path, capsys, command, key, flag):
    # a single sweep starts no pool and verify prints no progress notes, so
    # neither takes the option: as a flag or as a config key it exits 2
    with pytest.raises(SystemExit) as stop:
        main([command, "--n", "2", *flag])
    assert stop.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 2}))
    code, out, err = run_cli(capsys, command, "--n", "2", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"unknown keys ['{key}']" in err


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "gamma": 0.2}))
    code, out, _ = run_cli(capsys, "evolve", "--config", str(cfg),
                           "--t", "0.5", "--gamma", "0.3")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["config"]["gamma"] == 0.3
    assert doc["meta"]["config"]["n"] == 4
    assert doc["meta"]["gamma-assumed"] is False


def test_default_rate_is_flagged_as_assumed(capsys):
    code, out, _ = run_cli(capsys, "evolve", "--n", "2", "--t", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["gamma-assumed"] is True
    assert doc["meta"]["config"]["gamma"] == 0.05


def test_nonparallel_field_exit_code(capsys):
    # a noisy sweep needs the field along the noise axis
    for argv in (("sweep-time", "--n", "4", "--t-grid", "6,0.1,10"),
                 ("scan-n", "--n-list", "2,4", "--t-grid", "6,0.1,10")):
        code, out, err = run_cli(capsys, *argv, "--phi", "0.02,0,0")
        assert code == 4
        assert "AssumptionViolated" in err
        assert out == ""
    # evolve runs the joint integrator there, within its dimension cap
    code, out, _ = run_cli(capsys, "evolve", "--n", "3", "--t", "1.5", "--gamma", "0.1",
                           "--phi", "0.02,0,0.01")
    assert code == 0
    doc = json.loads(out)
    assert doc["split-valid"] is False
    space = build_space(3)
    rho = full_gkls_reference(ghz_state(space, "z").projector(), FieldParams((0.02, 0.0, 0.01)),
                              NoiseSpec("markovian", 0.1, _DEFAULT_AXIS), 1.5)
    jops = [collective_operator(space, a) for a in "xyz"]
    assert doc["first-moments"] == {a: float(j.expectation(rho).real) for a, j in zip("xyz", jops)}
    second = [[(a @ b).expectation(rho) for b in jops] for a in jops]
    assert doc["second-moments-real"] == [[float(v.real) for v in row] for row in second]
    assert doc["second-moments-imag"] == [[float(v.imag) for v in row] for row in second]
    code, out, err = run_cli(capsys, "evolve", "--n", "40", "--t", "1.5", "--phi", "0.02,0,0.01")
    assert (code, out) == (2, "")
    assert err == "spinsense: InvalidArgument: reference integrator limited to d <= 400, got 441\n"
    # a non-finite field is a bad argument, refused before the parallel test
    code, out, err = run_cli(capsys, "sweep-time", "--n", "4", "--t-grid", "6,0.1,10",
                             "--phi", "inf,0,0")
    assert code == 2
    assert "InvalidArgument" in err
    assert out == ""


@pytest.mark.parametrize("argv, files, message", [
    (["space-info", "--config", "{tmp}/absent.json"], {}, "cannot read config file"),
    (["space-info", "--config", "{tmp}/cfg.json"], {"cfg.json": "{"}, "is not valid JSON"),
    (["space-info", "--config", "{tmp}/cfg.json"], {"cfg.json": "[3]"},
     "must hold a flat JSON object"),
    (["scan-n", "--n-list", "2", "--workers", "0"], {}, "workers must be >= 1, got 0"),
    (["sweep-time"], {}, "sweep-time requires --n"),
    (["fit", "--in", "{tmp}/absent.csv"], {}, "cannot read"),
    (["fit", "--in", "{tmp}/scan.csv"], {"scan.csv": "# spinsense-version = 0\r\n"},
     "holds no CSV header"),
], ids=["config-unreadable", "config-not-json", "config-not-object", "workers-zero", "sweep-without-n", "fit-in-missing", "fit-in-no-header"])
def test_refusals_exit_2_and_name_the_problem(tmp_path, capsys, argv, files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text, newline="")
    code, out, err = run_cli(capsys, *[arg.format(tmp=tmp_path) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith("spinsense: InvalidArgument: ")
    assert message in err


@pytest.mark.parametrize("argv, flag", [
    (["sweep-time", "--n", "2", "--phi", "1,2"], "--phi"),
    (["scan-n", "--n-list", ","], "--n-list"),
], ids=["phi-two-values", "n-list-empty"])
def test_malformed_list_flags_exit_2(capsys, argv, flag):
    # argparse refuses a flag whose coercion raises, with its usage and exit 2
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: invalid" in captured.err


def test_singular_grid_point_is_an_empty_cell_and_null(capsys):
    # at N = 2 the last grid time, t = 100, has a singular QFIM: the library's
    # bound is NaN there, the CSV cell is empty and the JSON value null
    args = ["sweep-time", "--n", "2", "--t-grid", "8,0.01,100"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    body = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert body[-1] == "100.0,"
    assert all(not ln.endswith(",") for ln in body[:-1])
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    curve = json.loads(out)["curve"]
    expected = sweep_time(SweepConfig(n_particles=2, grid=TimeGrid(8, 0.01, 100.0))).bounds
    assert [v is None for _, v in curve] == np.isnan(expected).tolist() == [False] * 7 + [True]
    assert [v for _, v in curve[:-1]] == expected[:-1].tolist()


def test_verify_passes_for_one_spin(monkeypatch, capsys):
    # one spin cannot resolve three components, so the N = 1 sweeps that
    # sweep-vs-pointwise compares raise ExperimentFailed; the check counts
    # their points as singular, as the pointwise bounds are
    failed = []

    def recorded(config):
        try:
            return sweep_time(config)
        except ExperimentFailed:
            failed.append(config.n_particles)
            raise

    monkeypatch.setattr("spinsense.cli.sweep_time", recorded)
    code, out, _ = run_cli(capsys, "verify", "--n", "1")
    assert code == 0
    assert failed and set(failed) == {1}
    assert out.endswith("verify: 9/9 checks passed\n")
    assert "PASS sweep-vs-pointwise (N=1 and 8," in out


def test_sweep_failure_exit_code(capsys):
    # one spin cannot resolve three field components: every grid point is
    # singular and the sweep reports an experiment failure
    code, _, err = run_cli(capsys, "sweep-time", "--n", "1", "--kind", "none",
                           "--gamma", "0", "--t-grid", "6,0.1,10")
    assert code == 3
    assert "ExperimentFailed" in err


def test_invalid_qfim_exit_code(monkeypatch, capsys):
    # an indefinite QFIM is the program's fault, not the user's: exit 3. The
    # fake returns one QFIM per grid time of the chunk, as _chunk_qfim does
    monkeypatch.setattr(
        "spinsense.experiments._chunk_qfim",
        lambda chunk, *prepared: np.broadcast_to(np.diag([1.0, 1.0, -1.0]), chunk.shape + (3, 3)))
    code, _, err = run_cli(capsys, "sweep-time", "--n", "2", "--t-grid", "6,0.1,10")
    assert code == 3
    assert "NumericalError: invalid QFIM" in err
    assert "positive semidefinite" in err


def test_scan_reports_dropped_particle_numbers(tmp_path, capsys):
    # one spin cannot resolve three field components, so N = 1 is dropped;
    # the output names it, the same way for any worker count
    args = ["scan-n", "--n-list", "1,2", "--kind", "none", "--gamma", "0",
            "--t-grid", "6,0.1,10"]
    reason = "ExperimentFailed: no grid point produced an invertible QFIM"
    outputs = {}
    for fmt in ("csv", "json"):
        for workers in ("1", "2", "1"):
            path = tmp_path / f"{fmt}-{workers}-{len(outputs)}"
            assert run_cli(capsys, *args, "--format", fmt, "--workers", workers,
                           "--out", str(path))[0] == 0
            outputs.setdefault(fmt, []).append(path.read_bytes())
        assert len(set(outputs[fmt])) == 1
    lines = outputs["csv"][0].decode().splitlines()
    assert lines[-1] == f"# dropped = 1 ({reason})"
    body = [ln for ln in lines if not ln.startswith("#")]
    assert [ln.split(",")[0] for ln in body] == ["n", "2"]
    doc = json.loads(outputs["json"][0])
    assert doc["dropped"] == [{"n": 1, "reason": reason}]
    assert [row["n"] for row in doc["rows"]] == [2]


def test_husimi_writes_matrix_and_axes(tmp_path, capsys):
    out = tmp_path / "q.csv"
    code, _, _ = run_cli(capsys, "husimi", "--n", "2", "--grid", "5,8",
                         "--out", str(out))
    assert code == 0
    axes_path = tmp_path / "q.csv.axes.json"
    assert out.exists() and axes_path.exists()
    axes = json.loads(axes_path.read_text())
    assert axes["rows"] == 5 and axes["cols"] == 8
    assert len(axes["theta"]) == 5 and len(axes["phi"]) == 8
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 5
    assert all(len(r.split(",")) == 8 for r in rows)


def test_husimi_json_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "husimi", "--n", "3", "--grid", "5,8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["probe"] == "sim"
    assert len(doc["theta"]) == 5 and len(doc["phi"]) == 8
    expected = husimi_map(simultaneous_probe(build_space(3)), (5, 8))
    assert np.array_equal(doc["q"], expected)


def test_husimi_csv_to_stdout_is_refused(capsys):
    code, _, err = run_cli(capsys, "husimi", "--n", "2", "--grid", "5,8")
    assert code == 2
    assert "--out" in err


def test_fit_roundtrip_from_scan_output(tmp_path, capsys):
    scan = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "scan-n", "--n-list", "4,6,8,10",
                         "--gamma", "0.1", "--t-grid", "8,0.1,20",
                         "--out", str(scan))
    assert code == 0
    code, out, _ = run_cli(capsys, "fit", "--in", str(scan), "--n-min", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["column"] == "i_min"
    assert doc["n-used"] == 4
    assert doc["skipped"] == []
    assert doc["exponent"] < 0.0
    assert doc["prefactor"] > 0.0


def test_scan_flags_a_boundary_row_and_fit_skips_it(tmp_path, capsys):
    # on a grid from 0.5 the N = 16 ind curve rises from its first sample: a
    # boundary optimum at the grid start, not the one-shot budget edge
    scan = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "scan-n", "--n-list", "16", "--scenario", "ind",
                         "--t-grid", "24,0.5,100", "--out", str(scan))
    assert code == 0
    body = [ln for ln in scan.read_text().splitlines() if not ln.startswith("#")]
    assert body[0] == "n,scenario,kind,t_opt,i_min,boundary"
    n, _, _, t_opt, _, boundary = body[1].split(",")
    assert (n, float(t_opt), boundary) == ("16", 0.5, "true")
    code, out, _ = run_cli(capsys, "scan-n", "--n-list", "16", "--scenario", "ind",
                           "--t-grid", "24,0.5,100", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["boundary"] is True
    # fit leaves the boundary row out and names its N
    rows = "".join(f"{n},ind,markovian,{0.1 * n},{1.0 / n},false\r\n" for n in (10, 12, 14))
    with scan.open("a", newline="") as fh:
        fh.write(rows)
    code, out, _ = run_cli(capsys, "fit", "--in", str(scan), "--column", "i_min")
    assert code == 0
    doc = json.loads(out)
    assert (doc["n-used"], doc["skipped"]) == (3, [16])
    assert doc["exponent"] == pytest.approx(-1.0, rel=1e-12)


def test_fit_rejects_missing_column(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\r\n1,2\r\n")
    code, _, err = run_cli(capsys, "fit", "--in", str(bad))
    assert code == 2
    assert "i_min" in err


@pytest.mark.parametrize("content, line", [
    (b"n,i_min\r\n4,1.0\r\nx,2.0\r\n", 3),
    (b"# spinsense-version = 0\r\nn,i_min\r\n4,\xff\r\n", 3),
    (b"n,scenario,kind,t_opt,i_min\r\n4,sim,markovian,0.5,1.0\r\n6,sim,markovian\r\n", 3),
    (b"n,i_min,boundary\r\n4,1.0,false\r\n6,2.0,maybe\r\n", 3),
], ids=["non-numeric", "not-utf8", "short-row", "boundary-not-bool"])
def test_fit_rejects_a_malformed_csv(tmp_path, capsys, content, line):
    # a bad input file is a bad argument that names the file and its line
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    code, out, err = run_cli(capsys, "fit", "--in", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"spinsense: InvalidArgument: {bad} line {line}")


def test_fit_skips_blank_rows_and_empty_values(tmp_path, capsys):
    # scan-n writes an empty cell for a NaN; such a row, like a blank one,
    # holds no point
    scan = tmp_path / "scan.csv"
    scan.write_text("n,t_opt,i_min\r\n4,1.0,0.5\r\n\r\n6,2.0,\r\n8,1.0,0.25\r\n"
                    "10,,0.2\r\n", newline="")
    code, out, _ = run_cli(capsys, "fit", "--in", str(scan), "--n-min", "4")
    assert code == 0
    assert json.loads(out)["n-used"] == 3


def test_unsupported_format_is_refused_before_any_work(monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("evolve ran before the format was checked")

    monkeypatch.setattr("spinsense.cli.evolve", fail)
    code, out, err = run_cli(capsys, "evolve", "--n", "2", "--t", "1", "--format", "csv")
    assert (code, out) == (2, "")
    assert err == "spinsense: InvalidArgument: evolve supports format ('json',), got 'csv'\n"
    # two points cannot be fitted, but the format is refused first
    scan = tmp_path / "scan.csv"
    scan.write_text("n,i_min\r\n10,0.5\r\n12,0.25\r\n", newline="")
    code, out, err = run_cli(capsys, "fit", "--in", str(scan), "--format", "csv")
    assert (code, out) == (2, "")
    assert err == "spinsense: InvalidArgument: fit supports format ('json',), got 'csv'\n"


def test_scan_verbose_reports_the_pool_it_starts(pool_sizes, capsys):
    # --workers caps the pool; the note names the workers actually started
    args = ["scan-n", "--n-list", "2,4", "--gamma", "0.1", "--t-grid", "8,0.1,20",
            "--verbose"]
    code, _, err = run_cli(capsys, *args, "--workers", "64")
    assert code == 0
    assert pool_sizes == [2]
    assert "scan-n: 2 particle counts, workers=2\n" in err
    code, _, err = run_cli(capsys, *args, "--workers", "1")
    assert code == 0
    assert pool_sizes == [2]
    assert "scan-n: 2 particle counts, workers=1\n" in err


# One value per option: its flag text (None for a bare flag) and the same
# value as a config file holds it.
_REPRESENTATIVE = {
    "n": ("3", 3),
    "gamma": ("0.2", 0.2),
    "kind": ("nonmarkovian", "nonmarkovian"),
    "scenario": ("ind", "ind"),
    "t-total": ("50", 50),
    "phi": ("0.1,0,0", [0.1, 0, 0]),
    "axis": ("0,0,2", [0, 0, 2]),
    "t-grid": ("6,0.1,10", [6, 0.1, 10]),
    "n-list": ("2,4", [2, 4]),
    "t": ("0.5", 0.5),
    "probe": ("ghz-y", "ghz-y"),
    "grid": ("3,4", [3, 4]),
    "in": ("scan.csv", "scan.csv"),
    "column": ("t_opt", "t_opt"),
    "n-min": ("4", 4),
    "out": ("result.txt", "result.txt"),
    "format": ("json", "json"),
    "workers": ("2", 2),
    "verbose": (None, 1),
}


@pytest.mark.parametrize("command, key", [
    (command, key) for command, (_, keys, *_) in _COMMANDS.items() for key in keys])
def test_flag_and_config_file_resolve_alike(tmp_path, command, key):
    # a value given as a flag or in a config file goes through one conversion:
    # the same parameters, of the same types, and the same metadata
    text, value = _REPRESENTATIVE[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    parser = _build_parser()
    flag = [f"--{key}"] + ([] if text is None else [text])
    from_flag = _resolve(parser.parse_args([command, *flag]))
    from_file = _resolve(parser.parse_args([command, "--config", str(cfg)]))
    assert repr(from_flag) == repr(from_file)
    assert from_flag.explicit_keys == {key}
    assert _build_meta(from_flag) == _build_meta(from_file)


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_help_lists_exactly_the_table_options(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {"--help", "--config"} | {f"--{key}" for key in _COMMANDS[command][1]}


def test_verify_battery_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "verify: 9/9 checks passed"
    assert any(ln.startswith("PASS sweep-vs-pointwise") for ln in lines)
    assert any(ln.startswith("PASS product-space-moments") for ln in lines)
    assert any(ln.startswith("PASS product-space-state") for ln in lines)
    assert all(not ln.startswith("FAIL") for ln in lines)


def test_verify_writes_its_report_to_out(tmp_path, capsys):
    path = tmp_path / "verify.txt"
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--out", str(path))
    assert code == 0
    assert out.endswith("verify: 9/9 checks passed\n")
    assert path.read_text() == out


def test_verify_skips_the_oracles_past_their_caps(monkeypatch, capsys):
    # N = 2 (d = 4) past caps lowered to N <= 1 and d <= 3
    monkeypatch.setattr(dynamics, "_HILBERT_MAX_N", 1)
    monkeypatch.setattr(dynamics, "_GKLS_MAX_DIM", 3)
    code, out, _ = run_cli(capsys, "verify", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert [ln for ln in lines if ln.startswith("SKIP")] == [
        "SKIP split-vs-joint (reference integrator capped at d <= 3)",
        "SKIP product-space-moments (requires n <= 1, got 2)",
        "SKIP product-space-state (requires n <= 1, got 2)"]
    assert lines[-1] == "verify: 6/6 checks passed"


def test_verbose_notes_each_file_written(tmp_path, capsys):
    path = tmp_path / "space.json"
    code, out, err = run_cli(capsys, "space-info", "--n", "2", "--out", str(path), "--verbose")
    assert code == 0
    assert out == ""
    assert err == f"wrote {path}\n"
    assert json.loads(path.read_text())["dimension"] == 4


def test_unwritable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "space.json"
    code, out, err = run_cli(capsys, "space-info", "--n", "2", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("spinsense: ") and str(path) in err


def _package_env():
    """os.environ with this tree's src first on PYTHONPATH, so that a fresh
    interpreter imports the package under test."""
    paths = [str(Path(dynamics.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "spinsense", "--help"],
                          capture_output=True, text=True, timeout=120, env=_package_env())
    assert proc.returncode == 0
    assert "sweep-time" in proc.stdout


def test_console_script_installed():
    # The declared console script is loaded and run the way pip's wrapper
    # runs it, so the check needs no install; an installed script on PATH
    # is run as well.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["spinsense"]
    assert EntryPoint("spinsense", target, "console_scripts").load() is main

    wrapper = ("import sys; from importlib.metadata import EntryPoint; "
               f"sys.exit(EntryPoint('spinsense', {target!r}, "
               "'console_scripts').load()())")
    commands = [[sys.executable, "-c", wrapper]]
    exe = shutil.which("spinsense")
    if exe is not None:
        commands.append([exe])
    for command in commands:
        proc = subprocess.run([*command, "space-info", "--n", "2"],
                              capture_output=True, text=True, timeout=120, env=_package_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["dimension"] == 4
