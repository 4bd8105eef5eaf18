import concurrent.futures
from concurrent.futures import ProcessPoolExecutor

import pytest

from delaystab import eigensolver, region


@pytest.fixture(autouse=True)
def no_kept_search(monkeypatch):
    """Each test starts with no kept spectral search, so a query on a shared
    params object searches afresh, whatever an earlier test searched."""
    monkeypatch.setattr(eigensolver, "_kept", None)


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

    # sweep imports the pool class from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes
