"""Benchmark of the spinsense package: whole runs and per-layer spans.

    python3 perfbench/run.py --workload sweep-dephase --seed 0 --seconds 15 --trace 0

Run from the repository root. Every repetition of a workload body runs in a
fresh child interpreter (perfbench/child.py) that imports spinsense from
src/, so wall time, CPU time and peak memory belong to that workload alone.
``import spinsense`` is timed in import-only children interleaved with the
repetitions, and setup_s is the median of those samples. Repetitions run one
after another until --seconds have passed (at least two, so that outputs can
be compared between repeats). With --trace 1 one untraced and one traced
repetition run instead, and the per-layer metrics come from the traced one.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it records the environment and every repetition; the same
record and the spans of a traced run are written under perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from tracing import LAYER_METRICS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

TIME_LIMIT = 170.0      # seconds for the whole run, children included
MIN_REPS = 2
SETUP_ROUND = 4         # import-only children per round; setup_s is the
                        # median of three rounds spread over the run

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER = {**{name: ("count" if name.endswith(("_calls", "nnz", "_points")) else "s")
                for name in LAYER_METRICS},
             "cli.output_bytes": "bytes", "trace.overhead_frac": "ratio"}


class BenchError(Exception):
    pass


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny particle numbers, for the benchmark's own tests")
    return parser.parse_args(argv)


def child(mode, args, deadline):
    """Run one child interpreter and return its JSON report."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--out-dir", OUT_DIR]
    if args.smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the run finished")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child exceeded the {TIME_LIMIT:.0f} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def _source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _load_reference(smoke):
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["smoke" if smoke else "full"]


def _failures(inputs, reps, reference):
    """Failure reasons per repetition; identical CLI output is required
    between the repeats of one run."""
    out = []
    for rep in reps:
        reasons = workloads.check_rep(inputs, rep["outcomes"], reference)
        if rep["digest"] != reps[0]["digest"]:
            for key in workloads.sweep_keys(inputs):
                reasons.setdefault(key, []).append(
                    "scan-n output differs from the first repetition")
        out.append(reasons)
    return out


def run(args, deadline):
    os.makedirs(OUT_DIR, exist_ok=True)
    inputs = workloads.make_inputs(args.workload, args.seed, args.smoke)
    reference = None
    if args.seed == 0:
        reference = _load_reference(args.smoke).get(args.workload, {})
    # The first child compiles bytecode and reports the environment; untimed.
    env = child("import", args, deadline)["env"]
    env.update(commit=_commit(), src_sha256=_source_digest())

    if args.trace:
        reps = [child("body", args, deadline), child("traced", args, deadline)]
        setup = []
    else:
        # The machine's speed changes over seconds to minutes. Imports are
        # sampled before the first repetition, after it and after the last,
        # so that a slow stretch in one part of the run does not set the
        # median. The number of samples does not depend on how many
        # repetitions fit.
        def setup_round():
            return [child("import", args, deadline)["import_s"]
                    for _ in range(SETUP_ROUND)]
        setup = setup_round()
        reps, start = [], time.monotonic()
        while len(reps) < MIN_REPS or time.monotonic() - start < args.seconds:
            reps.append(child("body", args, deadline))
            if len(reps) == 1:
                setup += setup_round()
        setup += setup_round()

    failures = _failures(inputs, reps, reference)
    attempted = len(workloads.sweep_keys(inputs)) * len(reps)
    failed = sum(len(f) for f in failures)
    if args.trace:
        plain, traced = reps
        values = dict(traced["layers"])
        values["cli.output_bytes"] = traced["output_bytes"]
        values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        units = PER_LAYER
    else:
        values = {key: statistics.median(r[key] for r in reps)
                  for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        values.update(setup_s=statistics.median(setup), ok_frac=1.0 - failed / attempted)
        units = END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "inputs": inputs, "env": env,
              "reps": [{k: r.get(k) for k in ("wall_s", "cpu_s", "peak_rss_mb",
                                              "import_s", "threads", "output_bytes")}
                       for r in reps],
              "setup_samples": setup,
              "failures": failures,
              "absent": reps[-1].get("absent", []),
              "spans_file": reps[-1].get("spans_file")}
    return result, record


def main(argv=None):
    args = _parse(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    try:
        result, record = run(args, deadline)
    except (BenchError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(os.path.join(OUT_DIR, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"perfbench": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
