"""Deterministic ensemble execution: block split and pool size."""

import pytest

from csdyn import ensemble
from csdyn.ensemble import WORK_UNIT, blocks, deterministic_map
from csdyn.errors import ParamError


@pytest.mark.parametrize("n,jobs,sizes", [
    (192, 1, [192]),
    (192, 2, [96, 96]),
    (70, 3, [23, 23, 24]),
    (70, 8, [23, 23, 24]),   # at most ceil(n / WORK_UNIT) blocks
    (WORK_UNIT, 4, [WORK_UNIT]),
    (5, 2, [5]),
    (0, 2, []),
])
def test_blocks_are_contiguous_and_near_equal(n, jobs, sizes):
    bounds = blocks(n, jobs)
    assert [j - i for i, j in bounds] == sizes
    assert [i for i, _ in bounds] + [n] == [0] + [j for _, j in bounds]


class _FakePool:
    """Stands in for ProcessPoolExecutor, runs in-process and starts nothing."""

    sizes = []

    def __init__(self, max_workers):
        _FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def test_pool_starts_at_most_one_worker_per_item(monkeypatch):
    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", _FakePool)
    _FakePool.sizes = []
    assert deterministic_map(abs, [-1, 2], jobs=64) == [1, 2]
    assert deterministic_map(abs, [-1, 2, -3], jobs=2) == [1, 2, 3]
    assert deterministic_map(abs, [-4], jobs=64) == [4]  # one item runs in-process
    assert _FakePool.sizes == [2, 2]


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_are_rejected(jobs):
    with pytest.raises(ParamError):
        deterministic_map(abs, [1, 2], jobs=jobs)
