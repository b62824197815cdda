"""Fixtures shared by the test modules."""

import pytest

from spinsense import experiments


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each process pool a scan starts, recorded by a
    fake pool that runs the sweeps in this process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return map(func, items)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    return sizes
