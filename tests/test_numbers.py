"""Every number in numbers.json, swept again (record_numbers.py says how
the file is made and when to record it again)."""

import json
import math

import numpy as np

import record_numbers
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


def test_check_mode_names_what_moved_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # --check records the cases again and compares them with a file bit for
    # bit: one ulp in one number, or a case the file lacks, is named, and the
    # file is left as it was
    names = ("short-markovian-sim-4", "short-none-ind-6", "short-nonmarkovian-ind-1")
    monkeypatch.setattr(record_numbers, "cases", lambda: (c for c in cases() if c[0] in names))
    path = tmp_path / "numbers.json"
    assert record_numbers.main(["--out", str(path)]) == 0
    assert record_numbers.main(["--check", str(path)]) == 0
    data = json.loads(path.read_text())
    data[names[1]]["i_min"] = float(np.nextafter(data[names[1]]["i_min"], np.inf))
    del data[names[2]]
    path.write_text(json.dumps(data))
    before = path.read_text()
    capsys.readouterr()
    assert record_numbers.main(["--check", str(path)]) == 1
    assert path.read_text() == before
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("moved")] == [
        f"moved: {names[1]}", f"moved: {names[2]}"]
    assert "2 of 3 sweeps moved" in out
