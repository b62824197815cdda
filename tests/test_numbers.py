"""Every number in numbers.json, swept again (record_numbers.py says how
the file is made and when to record it again)."""

import json
import math

import numpy as np

from record_numbers import PATH, cases, record


def test_sweeps_reproduce_the_recorded_numbers():
    recorded = json.loads(PATH.read_text())
    assert list(recorded) == [name for name, _ in cases()]
    for name, config in cases():
        want, got = recorded[name], record(config)
        assert want.keys() == got.keys(), name
        if "raises" in want:
            assert got["raises"] == want["raises"], name
            continue
        assert (got["grid_index"], got["boundary"]) == (want["grid_index"], want["boundary"]), name
        assert math.isclose(got["t_opt"], want["t_opt"], rel_tol=1e-12), name
        assert math.isclose(got["i_min"], want["i_min"], rel_tol=1e-12), name
        old = np.array(want["bounds"], dtype=float)
        new = np.array(got["bounds"], dtype=float)
        assert np.array_equal(np.isnan(new), np.isnan(old)), name
        gated = old <= 1e3 * want["i_min"]
        assert np.allclose(new[gated], old[gated], rtol=1e-11, atol=0.0), name
