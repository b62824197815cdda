"""Workload inputs, bodies and correctness checks of the spinsense benchmark.

Inputs and checks are plain Python so that the orchestrating process never
imports numpy or spinsense; only the bodies (run inside a fresh child
interpreter) touch the package, and they import it lazily.

Every workload uses the standard scenario of the acceptance suite: gamma
0.05, a weak field (0.01, 0.01, 0.01) parallel to the default noise axis, a
total budget T = 100 and the 24-point shot grid from 0.05 to 100.
"""

from __future__ import annotations

import hashlib
import math
import os
import random

WORKLOADS = ("sweep-dephase", "sweep-noiseless", "scan-cli")

GAMMA = 0.05
PHI = 0.01                      # per component, so the field lies along (1,1,1)
AXIS = (2.0 / math.sqrt(3.0),) * 3     # the package's default noise axis
TOTAL_TIME = 100.0
GRID = (24, 0.05, 100.0)        # count, start, stop: the acceptance SCAN_GRID

# Seeds other than 0 rescale gamma and |phi| by these relative amounts at
# most. The dephasing cost grows like gamma T (markovian) or (gamma T)^2
# (non-markovian), so gamma moves by at most 1% to keep the work per run
# steady; |phi| does not change the work and moves by up to 10%.
GAMMA_SPREAD = 0.01
PHI_SPREAD = 0.10

# Particle numbers: the measured size and the tiny smoke size.
SIZES = {
    "sweep-dephase": {"full": 24, "smoke": 4},
    "sweep-noiseless": {"full": 48, "smoke": 6},
    "scan-cli": {"full": (6, 8, 10, 12), "smoke": (2, 3)},
}
SCAN_RUNS = (("markovian", "sim"), ("markovian", "ind"),
             ("nonmarkovian", "sim"), ("nonmarkovian", "ind"))

REL_TOL = 1e-3                  # allowed relative drift of t_opt and i_min


def scales(seed):
    """(gamma factor, |phi| factor); seed 0 is the unscaled scenario."""
    if seed == 0:
        return 1.0, 1.0
    rng = random.Random(seed)
    return (1.0 + rng.uniform(-GAMMA_SPREAD, GAMMA_SPREAD),
            1.0 + rng.uniform(-PHI_SPREAD, PHI_SPREAD))


def make_inputs(workload, seed, smoke=False):
    """The plain-data inputs of one workload at one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    g, p = scales(seed)
    size = SIZES[workload]["smoke" if smoke else "full"]
    inputs = {"workload": workload, "gamma": GAMMA * g, "phi": (PHI * p,) * 3,
              "axis": AXIS, "total_time": TOTAL_TIME, "grid": GRID}
    if workload == "scan-cli":
        inputs.update(n_list=size, runs=SCAN_RUNS)
    else:
        kind = "nonmarkovian" if workload == "sweep-dephase" else "none"
        inputs.update(n=size, kind=kind, scenario="sim")
    return inputs


def sweep_keys(inputs):
    """Keys of every sweep the workload performs, in order."""
    if inputs["workload"] == "scan-cli":
        return [f"{kind}/{scenario}/N{n}" for kind, scenario in inputs["runs"]
                for n in inputs["n_list"]]
    return [f"{inputs['kind']}/{inputs['scenario']}/N{inputs['n']}"]


def replay_config(inputs):
    """(n, kind) of the sweep whose grid loop the traced run replays."""
    if inputs["workload"] == "scan-cli":
        return max(inputs["n_list"]), "nonmarkovian"
    return inputs["n"], inputs["kind"]


# ---------------------------------------------------------------------------
# Bodies (child process only)
# ---------------------------------------------------------------------------

def scan_argv(inputs, kind, scenario, out_path):
    count, start, stop = inputs["grid"]
    return ["scan-n", "--n-list", ",".join(str(n) for n in inputs["n_list"]),
            "--t-grid", f"{count},{start!r},{stop!r}", "--workers", "1",
            "--kind", kind, "--scenario", scenario,
            "--gamma", repr(inputs["gamma"]),
            "--phi", ",".join(repr(x) for x in inputs["phi"]),
            "--axis", ",".join(repr(x) for x in inputs["axis"]),
            "--t-total", repr(inputs["total_time"]), "--out", out_path]


def prepare(inputs, out_dir):
    """Build everything the body needs, outside the timed region."""
    if inputs["workload"] == "scan-cli":
        return [(kind, scenario, os.path.join(out_dir, f"scan-{kind}-{scenario}.csv"))
                for kind, scenario in inputs["runs"]]
    from spinsense.experiments import SweepConfig, TimeGrid
    count, start, stop = inputs["grid"]
    return SweepConfig(n_particles=inputs["n"], scenario=inputs["scenario"],
                       kind=inputs["kind"], gamma=inputs["gamma"], field=inputs["phi"],
                       axis=inputs["axis"], total_time=inputs["total_time"],
                       grid=TimeGrid(count=count, start=start, stop=stop))


def run_body(inputs, prepared):
    """The timed workload body. Returns the CLI exit codes for scan-cli."""
    if inputs["workload"] == "scan-cli":
        from spinsense import cli
        return [cli.main(scan_argv(inputs, kind, scenario, path))
                for kind, scenario, path in prepared]
    from spinsense import experiments
    experiments.sweep_time(prepared)
    return []


def _read_scan_csv(path):
    """(rows keyed by sweep key, raw bytes) of one scan-n output file."""
    import csv
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = [ln for ln in raw.decode("utf-8").splitlines() if not ln.startswith("#")]
    rows = {}
    for rec in csv.DictReader(lines):
        key = f"{rec['kind']}/{rec['scenario']}/N{rec['n']}"
        # The CLI writes a non-finite value as an empty field.
        rows[key] = tuple(float(rec[f]) if rec[f] else math.nan for f in ("t_opt", "i_min"))
    return rows, raw


def collect(inputs, prepared, exit_codes, captured):
    """Per-sweep outcomes plus the digest and size of the CLI output.

    captured maps sweep keys to what sweep_time returned or raised; on
    scan-cli the optimum itself is read back from the CSV the user sees.
    """
    outcomes = {}
    for key, (result, error) in captured.items():
        outcomes[key] = _outcome(result, error)
    digest, size = None, 0
    if inputs["workload"] == "scan-cli":
        h = hashlib.sha256()
        for (kind, scenario, path), code in zip(prepared, exit_codes):
            if code != 0 or not os.path.exists(path):
                for n in inputs["n_list"]:
                    outcomes.setdefault(f"{kind}/{scenario}/N{n}", {})["error"] = \
                        f"scan-n exited with code {code}"
                continue
            rows, raw = _read_scan_csv(path)
            h.update(raw)
            size += len(raw)
            for n in inputs["n_list"]:
                key = f"{kind}/{scenario}/N{n}"
                out = outcomes.setdefault(key, {})
                if key in rows:
                    out["t_opt"], out["i_min"] = rows[key]
                elif not out.get("error"):
                    out["error"] = "row missing from scan-n output"
            os.remove(path)
        digest = h.hexdigest()
    return outcomes, digest, size


def _outcome(result, error):
    if error is not None:
        return {"error": error}
    nan_count = sum(1 for v in result.bounds if not math.isfinite(float(v)))
    return {"t_opt": float(result.t_opt), "i_min": float(result.i_min),
            "boundary": bool(result.refinement.boundary), "nan_count": nan_count}


def sweep_key(config):
    return f"{config.kind.value}/{config.scenario.value}/N{config.n_particles}"


# ---------------------------------------------------------------------------
# Checks (orchestrating process)
# ---------------------------------------------------------------------------

def _close(value, ref):
    return abs(value - ref) <= REL_TOL * abs(ref)


def check_rep(inputs, outcomes, reference):
    """Failure reasons per sweep key for one repetition of the body.

    Every sweep must run and return a finite positive i_min; noisy sweeps
    must show an interior dip and noiseless ones must sit on the budget edge.
    With a reference (seed 0), t_opt and i_min must stay within REL_TOL of
    it and the boundary flag must not change. On scan-cli the individual
    bound must exceed the simultaneous one at every N and noise kind.
    """
    reasons = {}
    for key in sweep_keys(inputs):
        out = outcomes.get(key)
        why = []
        if out is None:
            why.append("sweep never ran")
        elif out.get("error"):
            why.append(out["error"])
        else:
            i_min = out.get("i_min")
            if i_min is None or not (math.isfinite(i_min) and i_min > 0.0):
                why.append(f"i_min {i_min} is not finite and positive")
            boundary = out.get("boundary")
            noiseless = key.startswith("none/")
            if boundary is not None and boundary != noiseless:
                why.append(f"boundary flag {boundary} for a "
                           f"{'noiseless' if noiseless else 'noisy'} sweep")
            if reference is not None:
                ref = reference.get(key)
                if ref is None:
                    why.append("no reference value")
                else:
                    for field in ("t_opt", "i_min"):
                        if field in out and not _close(out[field], ref[field]):
                            why.append(f"{field} {out[field]!r} differs from "
                                       f"reference {ref[field]!r}")
                    if boundary is not None and boundary != ref["boundary"]:
                        why.append(f"boundary flag changed from {ref['boundary']}")
        if why:
            reasons[key] = why
    if inputs["workload"] == "scan-cli":
        for kind in sorted({k for k, _ in inputs["runs"]}):
            for n in inputs["n_list"]:
                sim, ind = (outcomes.get(f"{kind}/{s}/N{n}") or {} for s in ("sim", "ind"))
                if "i_min" in sim and "i_min" in ind and not ind["i_min"] > sim["i_min"]:
                    for s in ("sim", "ind"):
                        reasons.setdefault(f"{kind}/{s}/N{n}", []).append(
                            "i_ind does not exceed i_sim")
    return reasons
