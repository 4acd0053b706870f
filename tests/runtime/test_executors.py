"""Tests for the one fan-out rule (repro.runtime.executors)."""

import concurrent.futures

import pytest

from repro.errors import ConfigurationError
from repro.runtime import executors, fan_out, pool_size


def _double(x):
    # Module-level so the process pool can pickle it.
    return x * 2


def _explode(x):
    raise ValueError(f"boom on {x}")


JOBS = [1, 2, 3, 4, 5]


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if anything constructs a process pool."""

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was constructed")

    monkeypatch.setattr(executors, "ProcessPoolExecutor", refuse)


class TestMapPairs:
    """fan_out maps one function over the jobs, in job order."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_results_in_job_order(self, workers):
        assert fan_out(_double, JOBS, workers) == [2, 4, 6, 8, 10]

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_empty_jobs(self, workers):
        assert fan_out(_double, [], workers) == []

    def test_serial_propagates_exceptions(self):
        with pytest.raises(ValueError, match="boom"):
            fan_out(_explode, JOBS, 1)

    def test_process_propagates_exceptions(self):
        with pytest.raises(ValueError, match="boom"):
            fan_out(_explode, JOBS, 2)


class TestResolution:
    """The worker count alone picks the schedule."""

    def test_default_is_serial_for_one_worker(self, no_pool):
        assert pool_size(1, len(JOBS)) == 1
        assert fan_out(_double, JOBS, 1) == [2, 4, 6, 8, 10]

    def test_single_job_never_starts_a_pool(self, no_pool):
        assert pool_size(4, 1) == 1
        assert fan_out(_double, [3], 4) == [6]
        # Closures work because the job runs in this thread.
        assert fan_out(lambda x: x + 1, [3], 4) == [4]

    def test_default_is_process_for_many_workers(self, monkeypatch):
        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(executors, "ProcessPoolExecutor", RecordingPool)
        assert fan_out(_double, JOBS, 4) == [2, 4, 6, 8, 10]
        assert fan_out(_double, JOBS[:2], 4) == [2, 4]
        assert sizes == [4, 2]

    def test_in_process_flags(self):
        # Callers emit live events exactly when the pool size is 1.
        assert pool_size(1, 5) == 1
        assert pool_size(4, 1) == 1
        assert pool_size(4, 0) == 1
        assert pool_size(2, 5) == 2
        assert pool_size(8, 3) == 3

    def test_bad_worker_counts_rejected(self, no_pool):
        for workers in (0, -3, 2.5, "2", True, None):
            with pytest.raises(ConfigurationError, match="workers"):
                fan_out(_double, JOBS, workers)

    def test_unknown_name_rejected(self, no_pool):
        # The schedule is not chosen by name any more.
        for name in ("serial", "thread", "process"):
            with pytest.raises(ConfigurationError, match="workers"):
                fan_out(_double, JOBS, name)
