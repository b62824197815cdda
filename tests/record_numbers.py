"""Record the numbers spinsense reproduces: one time sweep per case of
cases(), written to numbers.json beside this script.

Per sweep the file holds t_opt, i_min, the grid index and boundary flag of
the refinement, and the coarse bounds (null where the QFIM was singular);
for a sweep that raises one of the package's errors, its type. The cases are
N = 1..24, 32 and 48 for each noise kind and scenario, on the default
60-point grid and the 24-point acceptance grid, with the default field,
axis and gamma. tests/test_numbers.py sweeps every case again and compares.

Record again only in a change that moves numbers on purpose, and state the
largest move per field in CHANGES.md. From the repository root:

    PYTHONPATH=src python3 tests/record_numbers.py

`--out FILE` writes the records elsewhere and `--check FILE` (numbers.json
by default) records every case again and compares it with FILE bit for bit,
without writing: it names each case that moved and exits 1 if any did. A
change that must keep every number records the parent's numbers, here from
a checkout of the parent commit in ../parent, and checks its own against them:

    PYTHONPATH=../parent/src python3 tests/record_numbers.py --out parent.json
    PYTHONPATH=src python3 tests/record_numbers.py --check parent.json

numbers.json may be older than the code, as test_numbers.py's tolerances
admit rounding moves; `--check` against it then names the cases that moved
by rounding since it was recorded.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from spinsense import NoiseKind, SpinsenseError, SweepConfig, SweepScenario, TimeGrid, sweep_time

PATH = Path(__file__).with_name("numbers.json")

GRIDS = {"default": TimeGrid(), "short": TimeGrid(count=24, start=0.05, stop=100.0)}
PARTICLES = list(range(1, 25)) + [32, 48]


def cases():
    """(name, SweepConfig) of every recorded sweep, in file order."""
    for grid, times in GRIDS.items():
        for kind in NoiseKind:
            for scenario in SweepScenario:
                for n in PARTICLES:
                    yield (f"{grid}-{kind.value}-{scenario.value}-{n}",
                           SweepConfig(n_particles=n, scenario=scenario, kind=kind, grid=times))


def record(config):
    """The numbers of one sweep, as stored in numbers.json."""
    try:
        result = sweep_time(config)
    except SpinsenseError as exc:
        return {"raises": type(exc).__name__}
    return {"t_opt": result.t_opt, "i_min": result.i_min,
            "grid_index": result.refinement.grid_index,
            "boundary": result.refinement.boundary,
            "bounds": [None if math.isnan(v) else float(v) for v in result.bounds]}


def moved(recorded, fresh):
    """The names of the cases whose records differ, in order: a case missing
    on one side counts, and floats compare bit for bit (as JSON keeps them)."""
    return [name for name in dict.fromkeys([*recorded, *fresh])
            if recorded.get(name) != fresh.get(name)]


def main(argv=None):
    parser = argparse.ArgumentParser(description="Record the sweeps of numbers.json.")
    parser.add_argument("--out", type=Path, default=PATH, metavar="FILE",
                        help="where to write the records (default: numbers.json)")
    parser.add_argument("--check", type=Path, nargs="?", const=PATH, metavar="FILE",
                        help="compare with FILE (default: numbers.json) instead of writing")
    args = parser.parse_args(argv)
    fresh = {name: record(config) for name, config in cases()}
    if args.check is not None:
        names = moved(json.loads(args.check.read_text()), fresh)
        for name in names:
            print(f"moved: {name}")
        print(f"{len(names)} of {len(fresh)} sweeps moved from {args.check}")
        return 1 if names else 0
    lines = [f"{json.dumps(name)}: {json.dumps(value)}" for name, value in fresh.items()]
    args.out.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} sweeps to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
