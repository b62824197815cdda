"""Tests of the benchmark itself, at tiny particle numbers.

    python3 -m pytest -q perfbench

Not part of the package test suite (pyproject's testpaths is tests/).
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)


def _bench(*extra, cwd=ROOT, seed=0, trace=0, workload="scan-cli"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in DECLARED["per_layer"]] == list(run.PER_LAYER)
    for group, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in DECLARED[group]} == units


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace,seed", [(0, 0), (1, 7)])
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace, seed):
    result = _result(_bench("--smoke", workload=workload, trace=trace, seed=seed))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    group = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in group}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        assert result["metrics"]["experiments.sweep_calls"]["value"] >= 1
        assert result["metrics"]["dynamics.evolve_s"]["value"] > 0.0
    else:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_corrupted_reference_fails_every_sweep(tmp_path, monkeypatch):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    for entry in reference["smoke"]["scan-cli"].values():
        entry["t_opt"] *= 1.01
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(reference), encoding="utf-8")
    monkeypatch.setattr(run, "REFERENCE", str(bad))
    args = run._parse(["--workload", "scan-cli", "--seed", "0", "--seconds", "1",
                       "--trace", "0", "--smoke"])
    result, _ = run.run(args, time.monotonic() + run.TIME_LIMIT)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_invariants_catch_ordering_and_boundary_faults():
    inputs = workloads.make_inputs("scan-cli", 3, smoke=True)
    good = {key: {"t_opt": 1.0, "i_min": 2.0 if "/ind/" in key else 1.0, "boundary": False}
            for key in workloads.sweep_keys(inputs)}
    assert workloads.check_rep(inputs, good, None) == {}
    swapped = {key: dict(out, i_min=3.0 - out["i_min"]) for key, out in good.items()}
    flipped = {key: dict(out, boundary=True) for key, out in good.items()}
    for bad in (swapped, flipped):
        assert set(workloads.check_rep(inputs, bad, None)) == set(good)


def test_without_the_package_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
