"""Command-line interface: output formats, metadata, config handling,
exit codes, and the packaged entry points."""

import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spinsense import (ExperimentFailed, FieldParams, NoiseSpec, SweepConfig, TimeGrid,
                       build_space, collective_operator, full_gkls_reference, ghz_state,
                       husimi_map, simultaneous_probe, sweep_time)
from spinsense import cli, dynamics
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


def test_scan_takes_workers_1_and_it_changes_nothing(tmp_path, capsys):
    # scans run in-process; --workers 1, as a flag or a config key, is
    # accepted for older command lines and leaves every byte as it is, the
    # config header and config-sha256 included
    args = ["scan-n", "--n-list", "2,4", "--gamma", "0.1",
            "--t-grid", "8,0.1,20"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 1}))
    plain = tmp_path / "plain.csv"
    assert run_cli(capsys, *args, "--out", str(plain))[0] == 0
    for k, extra in enumerate((["--workers", "1"], ["--config", str(cfg)])):
        path = tmp_path / f"{k}.csv"
        assert run_cli(capsys, *args, *extra, "--out", str(path))[0] == 0
        assert filecmp.cmp(plain, path, shallow=False)
    lines = plain.read_text().splitlines()
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
    ("space-info", {"n": 3, "out": None}, "out"),
    ("fit", {"in": "scan.csv", "column": 5}, "column"),
    ("fit", {"in": []}, "in"),
])
def test_config_file_values_validated_like_flags(tmp_path, monkeypatch, capsys, command,
                                                values, key):
    # a bad config value is a bad argument (exit 2) that names its key, never
    # a traceback, a silently truncated number or a JSON value taken as text
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith(f"spinsense: InvalidArgument: config key {key!r}: ")
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("command, key, flag", [
    ("sweep-time", "workers", ["--workers", "2"]),
    ("verify", "verbose", ["--verbose"]),
], ids=["sweep-time-workers", "verify-verbose"])
def test_options_a_command_would_ignore_are_refused(tmp_path, capsys, command, key, flag):
    # only scan-n takes --workers and verify prints no progress notes, so
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
    (["scan-n", "--n-list", "2", "--workers", "0"], {},
     "--workers: scans run in-process, so only 1 is accepted, got '0'"),
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


@pytest.mark.parametrize("argv, key, reason", [
    (["sweep-time", "--n", "2", "--phi", "1,2"], "phi", "vector needs 3 values, got '1,2'"),
    (["sweep-time", "--n", "2", "--axis", "1"], "axis", "vector needs 3 values, got '1'"),
    (["sweep-time", "--n", "2", "--t-grid", "5,0.1"], "t-grid",
     "t-grid (count,min,max) needs 3 values, got '5,0.1'"),
    (["scan-n", "--n-list", ","], "n-list", "n-list must not be empty"),
    (["sweep-time", "--n", "2.5"], "n", "expected int, got '2.5'"),
    (["sweep-time", "--n", "2", "--gamma", "x"], "gamma", "expected float, got 'x'"),
    (["husimi", "--n", "2", "--grid", "3"], "grid", "grid (rows,cols) needs 2 values, got '3'"),
], ids=["phi", "axis", "t-grid", "n-list", "n", "gamma", "grid"])
def test_malformed_flag_values_exit_2_with_their_reason(capsys, argv, key, reason):
    # a flag value goes through the coercion a config value does, so its
    # refusal names the flag and the reason, never a private function
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"spinsense: InvalidArgument: --{key}: {reason}\n"
    assert not re.search(r"_triple|_grid_spec|_shape|_int_list", err)


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
    # the output names it, and a rerun writes the same bytes
    args = ["scan-n", "--n-list", "1,2", "--kind", "none", "--gamma", "0",
            "--t-grid", "6,0.1,10"]
    reason = "ExperimentFailed: no grid point produced an invertible QFIM"
    outputs = {}
    for fmt in ("csv", "json"):
        for run in range(2):
            path = tmp_path / f"{fmt}-{run}"
            assert run_cli(capsys, *args, "--format", fmt, "--out", str(path))[0] == 0
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


def test_scan_verbose_notes_its_particle_counts(capsys):
    # the note counts the sweeps the scan runs in-process, with or without --workers 1
    args = ["scan-n", "--n-list", "2,4", "--gamma", "0.1", "--t-grid", "8,0.1,20",
            "--verbose"]
    for extra in ([], ["--workers", "1"]):
        code, _, err = run_cli(capsys, *args, *extra)
        assert (code, err) == (0, "scan-n: 2 particle counts\n")


@pytest.mark.parametrize("source, name, got", [
    (["--workers", "2"], "--workers", "'2'"),
    (["--workers", "0"], "--workers", "'0'"),
    ({"workers": 2}, "config key 'workers'", "2"),
], ids=["flag-2", "flag-0", "config-2"])
def test_scan_refuses_workers_other_than_1(tmp_path, capsys, source, name, got):
    # there is no pool to size: any value but 1 is a bad argument that says why
    if isinstance(source, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(source))
        source = ["--config", str(cfg)]
    code, out, err = run_cli(capsys, "scan-n", "--n-list", "2", *source)
    assert (code, out) == (2, "")
    assert err == (f"spinsense: InvalidArgument: {name}: scans run in-process, "
                   f"so only 1 is accepted, got {got}\n")


@pytest.mark.parametrize("argv, message", [
    (["sweep-time", "--n", "2", "--gamma", "1e200", "--kind", "nonmarkovian"],
     "Theta(t) at gamma = 1e+200 overflows from t = 0.01"),
    (["sweep-time", "--n", "2", "--gamma", "1e308"],
     "Theta(t) at gamma = 1e+308 overflows from t = 2.018760254679039"),
    (["sweep-time", "--n", "1030", "--kind", "none"],
     "probe amplitudes need N <= 1029 (C(N, k) as floats), got 1030"),
    (["husimi", "--n", "1030", "--format", "json", "--grid", "2,1"],
     "probe amplitudes need N <= 1029 (C(N, k) as floats), got 1030"),
], ids=["nonmarkovian-gamma-1e200", "markovian-gamma-1e308", "sweep-n-1030",
        "husimi-n-1030"])
def test_values_past_the_floats_exit_2_in_one_line(capsys, argv, message):
    # a strength, exponential or binomial that no float holds is refused in
    # one line naming the value, never a traceback or a printed array
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"spinsense: InvalidArgument: {message}\n")


@pytest.mark.parametrize("t", ["1e8", "1e17", "1e20", "1e308"])
def test_evolve_keeps_the_trace_at_any_strength(capsys, t):
    # past Theta = 10 every chain has saturated and its exponential is taken
    # there, so a long run keeps the trace to 1e-10 and raises no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "evolve", "--n", "2", "--t", t)
    assert (code, err) == (0, "")
    assert abs(json.loads(out)["trace"] - 1.0) <= 1e-10


@pytest.mark.parametrize("t, steps", [("1e4", "2.04e+05"), ("1e308", "inf")])
def test_joint_integration_past_its_step_cap_is_refused(capsys, t, steps):
    # the first pass's step count, taken in floats, is refused before any step
    code, out, err = run_cli(capsys, "evolve", "--n", "2", "--t", t, "--phi", "0.02,0,0")
    assert (code, out) == (2, "")
    assert err == (f"spinsense: InvalidArgument: the reference integration to t = {float(t)!r} "
                   f"needs {steps} RK4 steps, more than 10000\n")


def test_joint_integration_that_does_not_converge_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "_REFERENCE_MAX_DOUBLINGS", 0)
    code, out, err = run_cli(capsys, "evolve", "--n", "2", "--t", "0.5", "--phi", "0.02,0,0")
    assert (code, out, err) == (
        3, "", "spinsense: NumericalError: reference integration did not converge to 1e-10\n")


def test_failed_rotation_eigensolve_exits_3(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", broken)
    code, out, err = run_cli(capsys, "evolve", "--n", "2", "--t", "0.5")
    assert (code, out, err) == (3, "", "spinsense: NumericalError: collective rotation "
                                       "diagonalization failed: Eigenvalues did not converge\n")


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
    "workers": ("1", 1),
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


@pytest.mark.parametrize("name, fake, line", [
    ("build_space", lambda real: lambda n: real(n + 1 if n == 17 else n),
     "FAIL dimension-counting (multiplicity sum 262144 != 2^17)"),
    ("dicke_dimension", lambda real: lambda n: real(n) + (n == 30),
     "FAIL dimension-counting (sector layout disagrees with the dimension formula at N=30)"),
    ("sweep_time", lambda real: lambda config: SimpleNamespace(bounds=np.ones(config.grid.count)),
     "FAIL sweep-vs-pointwise (N=1, markovian sim: singular points differ)"),
], ids=["multiplicity-sum", "dimension-formula", "singular-points"])
def test_verify_reports_a_failed_check_and_exits_3(monkeypatch, capsys, name, fake, line):
    # a check's failure, forced through what it calls, is one FAIL line
    monkeypatch.setattr(cli, name, fake(getattr(cli, name)))
    code, out, err = run_cli(capsys, "verify", "--n", "1")
    assert (code, err) == (3, "")
    lines = out.splitlines()
    assert [ln for ln in lines if ln.startswith("FAIL")] == [line]
    assert lines[-1] == "verify: 8/9 checks passed"


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
