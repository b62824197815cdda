"""One measured repetition of a benchmark workload in a fresh interpreter.

    python3 perfbench/child.py --mode body --workload sweep-dephase --seed 0 \
        --out-dir perfbench/out

Every mode times ``import spinsense`` and reports the interpreter,
numpy/scipy/BLAS versions and thread settings. ``import`` stops there;
``body`` also runs the workload body once with tracing off; ``traced`` runs it with
spans around every layer call and then replays the grid loop. The report is
the last line of standard output, as JSON. run.py starts this script; it is
not meant to be run by hand except for debugging.
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("import", "body", "traced"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out-dir")
    return parser.parse_args(argv)


def environment():
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def _thread_count():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def _run(args):
    import resource
    import traceback

    import tracing
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.smoke)
    prepared = workloads.prepare(inputs, args.out_dir)
    captured = {}

    def capture(fn):
        def wrapper(config, *a, **kw):
            key = workloads.sweep_key(config)
            try:
                result = fn(config, *a, **kw)
            except Exception as exc:
                captured[key] = (None, f"{type(exc).__name__}: {exc}")
                raise
            captured[key] = (result, None)
            return result
        return wrapper

    from spinsense import experiments
    traced = args.mode == "traced"
    tracer = tracing.Tracer()
    absent, replay_absent, exit_codes, report = [], [], [], {}
    tracing.wrap(experiments, "sweep_time", capture, absent)
    if traced:
        tracing.install(tracer, absent)
        tracing.install(tracer, replay_absent, tracing.REPLAY_TARGETS)
        tracer.run_id = "body"
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        exit_codes = workloads.run_body(inputs, prepared)
    except Exception:
        # The sweep's own failure is in `captured`; keep measuring.
        traceback.print_exc()
    report["wall_s"] = time.perf_counter() - wall0
    report["cpu_s"] = time.process_time() - cpu0
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["threads"] = _thread_count()
    if traced and not replay_absent:
        tracer.run_id = "replay"
        n, kind = workloads.replay_config(inputs)
        tracing.replay(inputs, n, kind)
    outcomes, digest, size = workloads.collect(inputs, prepared, exit_codes, captured)
    report.update(outcomes=outcomes, digest=digest, output_bytes=size)
    if traced:
        report["layers"] = tracing.layer_metrics(tracer.spans)
        report["absent"] = absent + replay_absent
        path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        report["spans_file"] = os.path.relpath(path, ROOT)
    return report


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import spinsense
    import_s = time.perf_counter() - t0
    if not os.path.abspath(spinsense.__file__).startswith(src + os.sep):
        print(f"child: spinsense imported from {spinsense.__file__}, not {src}",
              file=sys.stderr)
        return 2
    report = {"import_s": import_s, "env": environment()}
    if args.mode != "import":
        report.update(_run(args))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
