"""Write perfbench/reference.json: the seed-0 optimum of every sweep.

    python3 perfbench/record_reference.py

For each workload, at full and smoke size, one untraced child runs the body
at seed 0 and its per-sweep t_opt, i_min, boundary flag and count of
missing (NaN) grid points are stored. The file was written once, at the
commit that introduced the benchmark; later versions of the package are
checked against it (t_opt and i_min within 1e-3 relative, same boundary
flag), so it must not be rewritten to make a failing check pass.
"""

import argparse
import json
import os
import sys
import time

import run
import workloads

FIELDS = ("t_opt", "i_min", "boundary", "nan_count")


def main():
    reference = {}
    deadline = time.monotonic() + 3600.0
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for scale in ("full", "smoke"):
        reference[scale] = {}
        for name in workloads.WORKLOADS:
            args = argparse.Namespace(workload=name, seed=0, smoke=scale == "smoke")
            report = run.child("body", args, deadline)
            outcomes = report["outcomes"]
            missing = [k for k in workloads.sweep_keys(
                workloads.make_inputs(name, 0, args.smoke))
                if any(f not in outcomes.get(k, {}) for f in FIELDS)]
            if missing:
                print(f"record_reference: {name} ({scale}) lacks {missing}", file=sys.stderr)
                return 1
            reference[scale][name] = {k: {f: outcomes[k][f] for f in FIELDS}
                                      for k in sorted(outcomes)}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
