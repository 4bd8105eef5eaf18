from concurrent.futures import ProcessPoolExecutor

import pytest

from delaystab import region


@pytest.fixture
def started_pools(monkeypatch):
    """max_workers of every process pool sweep starts; the pools are real.

    Skips on a host with fewer than 2 usable CPUs, where sweep runs
    serially and a parallel test would not exercise the pool.
    """
    if region._usable_cpus() < 2:
        pytest.skip("sweep starts no process pool with fewer than 2 usable CPUs")
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(region, "ProcessPoolExecutor", RecordingPool)
    return sizes
