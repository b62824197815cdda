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
"""

import json
import math
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


def main():
    lines = [f"{json.dumps(name)}: {json.dumps(record(config))}" for name, config in cases()]
    PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} sweeps to {PATH}")


if __name__ == "__main__":
    main()
