"""Tests for the executor policies (ordering, concurrency, errors)."""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.runtime import executor as executor_module
from repro.runtime.executor import ProcessExecutor, SerialExecutor, resolve_executor


def _square(value):
    return value * value


def _sleep_inverse(value):
    # Later submissions finish earlier, exercising out-of-order completion.
    time.sleep(0.05 / (value + 1))
    return value * 10


def _boom(value):
    raise ValueError(f"boom {value}")


def _pid(_):
    return os.getpid()


def _slsqp_task_count(_):
    """Solve a small SLSQP problem, then count this process's threads."""
    from scipy.optimize import minimize

    minimize(
        lambda x: float((x[0] - 1.0) ** 2 + (x[1] - 2.0) ** 2),
        np.zeros(2),
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda x: 3.0 - x[0] - x[1]}],
    )
    return len(os.listdir("/proc/self/task"))


@pytest.fixture
def pools(monkeypatch):
    """Record every process pool the executor builds and how it shuts down."""

    class CountingPool(ProcessPoolExecutor):
        sizes = []
        shutdowns = []

        def __init__(self, max_workers=None, **kwargs):
            CountingPool.sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

        def shutdown(self, wait=True, **kwargs):
            CountingPool.shutdowns.append(wait)
            super().shutdown(wait=wait, **kwargs)

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", CountingPool)
    return CountingPool


ALL_POLICIES = [
    SerialExecutor(),
    ProcessExecutor(workers=2),
]


@pytest.mark.parametrize("executor", ALL_POLICIES, ids=lambda e: e.name)
class TestMapOrdered:
    def test_results_in_submission_order(self, executor):
        assert executor.map_ordered(_square, range(8)) == [i * i for i in range(8)]

    def test_order_kept_even_when_completion_order_reverses(self, executor):
        assert executor.map_ordered(_sleep_inverse, range(5)) == [0, 10, 20, 30, 40]

    def test_empty_batch(self, executor):
        assert executor.map_ordered(_square, []) == []

    def test_errors_propagate(self, executor):
        with pytest.raises(ValueError, match="boom"):
            executor.map_ordered(_boom, [1, 2])

    def test_on_result_sees_every_index(self, executor):
        seen = {}
        executor.map_ordered(_square, range(6), lambda i, r: seen.__setitem__(i, r))
        assert seen == {i: i * i for i in range(6)}


class TestPolicies:
    def test_serial_is_single_worker(self):
        assert SerialExecutor().workers == 1
        assert SerialExecutor().describe() == "serial[1]"

    def test_pool_worker_counts(self):
        assert ProcessExecutor(workers=3).workers == 3
        assert ProcessExecutor(workers=2).describe() == "process[2]"

    def test_default_workers_use_cpu_count(self):
        assert ProcessExecutor().workers >= 1
        assert ProcessExecutor(workers=0).workers >= 1

    def test_one_per_cpu_follows_the_affinity_mask(self, monkeypatch):
        # A process pinned to one CPU (taskset, cgroup cpusets) gets one
        # worker, however many CPUs the machine has.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert ProcessExecutor(workers=0).workers == 1
        assert isinstance(resolve_executor(0), SerialExecutor)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert ProcessExecutor().workers == 3
        assert resolve_executor(0).describe() == "process[3]"


class TestResolveExecutor:
    def test_one_worker_is_serial(self):
        assert isinstance(resolve_executor(1), SerialExecutor)

    def test_many_workers_is_process(self):
        executor = resolve_executor(4)
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers == 4

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_executor(-1)


class TestSession:
    def test_session_reuses_one_pool(self, pools):
        executor = ProcessExecutor(workers=2)
        with executor.session():
            first = executor.map_ordered(_pid, range(4))
            second = executor.map_ordered(_pid, range(4))
            assert pools.shutdowns == []
        assert pools.sizes == [2]
        assert pools.shutdowns == [True]
        assert len(set(first) | set(second)) <= 2
        assert multiprocessing.active_children() == []

    def test_sessions_nest(self, pools):
        executor = ProcessExecutor(workers=2)
        with executor.session():
            with executor.session():
                executor.map_ordered(_square, range(4))
            assert pools.shutdowns == []  # only the outermost exit shuts down
            assert executor.map_ordered(_square, range(3)) == [0, 1, 4]
        assert pools.sizes == [2]
        assert pools.shutdowns == [True]

    def test_call_outside_a_session_is_its_own_session(self, pools):
        executor = ProcessExecutor(workers=2)
        executor.map_ordered(_square, range(4))
        assert pools.shutdowns == [True]
        executor.map_ordered(_square, range(4))
        assert pools.sizes == [2, 2]
        assert pools.shutdowns == [True, True]

    def test_session_shuts_pool_down_on_error(self, pools):
        executor = ProcessExecutor(workers=2)
        with pytest.raises(ValueError, match="boom"):
            with executor.session():
                executor.map_ordered(_square, range(4))
                executor.map_ordered(_boom, range(4))
        assert pools.sizes == [2]
        assert pools.shutdowns == [True]
        assert multiprocessing.active_children() == []

    def test_pool_grows_but_never_shrinks(self, pools):
        # A call never runs on fewer processes than it has items and workers.
        executor = ProcessExecutor(workers=3)
        with executor.session():
            executor.map_ordered(_square, [1])
            executor.map_ordered(_square, range(2))
            executor.map_ordered(_square, [1])
            executor.map_ordered(_square, range(5))
        assert pools.sizes == [1, 2, 3]
        assert pools.shutdowns == [True, True, True]

    def test_empty_call_forks_nothing(self, pools):
        executor = ProcessExecutor(workers=2)
        with executor.session():
            assert executor.map_ordered(_square, []) == []
        assert pools.sizes == []

    def test_serial_session_is_a_no_op(self):
        executor = SerialExecutor()
        with executor.session() as active:
            with active.session():
                assert active.map_ordered(_square, range(3)) == [0, 1, 4]
        assert active is executor

    @pytest.mark.skipif(sys.platform != "linux", reason="the pool forks on Linux only")
    def test_forked_worker_starts_no_openblas_helper(self):
        # SciPy, and with it its OpenBLAS, in the parent; the library itself
        # calls no BLAS, but a pooled task may.
        pytest.importorskip("scipy.optimize")
        with open("/proc/self/maps", encoding="utf-8") as maps:
            if "openblas" not in maps.read().lower():
                pytest.skip("no OpenBLAS mapped into this process")
        # Uncapped, the SLSQP would start an OpenBLAS helper thread in the
        # worker that busy-waits on another worker's CPU.
        assert ProcessExecutor(workers=2).map_ordered(_slsqp_task_count, range(2)) == [1, 1]
