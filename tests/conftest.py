"""Fixtures shared by the grid, scalar and EM tests."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from bornscat import grids


@pytest.fixture(params=[None, 1, 3], ids=["cpus", "1-worker", "3-workers"])
def pool_workers(request, monkeypatch):
    """The default pool and blocks, or a pool of 1 or 3 threads with 2 KiB
    blocks and 1 KiB sub-blocks, so that every shape the tests use splits
    into several blocks and every per-node pass into several spans."""
    if request.param is None:
        yield
        return
    pool = ThreadPoolExecutor(request.param)
    monkeypatch.setattr(grids, "_pool", pool)
    monkeypatch.setattr(grids, "_usable_cpus", lambda: request.param)
    monkeypatch.setattr(grids, "_BLOCK_BYTES", 2 * 1024)
    monkeypatch.setattr(grids, "_SUB_BLOCK_BYTES", 1024)
    yield
    pool.shutdown()
