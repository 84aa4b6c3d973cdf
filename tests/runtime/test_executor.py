"""Tests for the executor policies (ordering, concurrency, errors)."""

from __future__ import annotations

import os
import time

import pytest

from repro.exceptions import ConfigurationError
from repro.runtime.executor import (
    EXECUTOR_MODES,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    resolve_executor,
)


def _square(value):
    return value * value


def _sleep_inverse(value):
    # Later submissions finish earlier, exercising out-of-order completion.
    time.sleep(0.05 / (value + 1))
    return value * 10


def _boom(value):
    raise ValueError(f"boom {value}")


ALL_POLICIES = [
    SerialExecutor(),
    ThreadExecutor(workers=4),
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
        assert ThreadExecutor(workers=3).workers == 3
        assert ProcessExecutor(workers=2).describe() == "process[2]"

    def test_default_workers_use_cpu_count(self):
        assert ThreadExecutor().workers >= 1
        assert ProcessExecutor(workers=0).workers >= 1

    def test_one_per_cpu_follows_the_affinity_mask(self, monkeypatch):
        # A process pinned to one CPU (taskset, cgroup cpusets) gets one
        # worker, however many CPUs the machine has.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert ProcessExecutor(workers=0).workers == 1
        assert isinstance(resolve_executor(0), SerialExecutor)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert ThreadExecutor().workers == 3


class TestResolveExecutor:
    def test_auto_one_worker_is_serial(self):
        assert isinstance(resolve_executor(1), SerialExecutor)

    def test_auto_many_workers_is_process(self):
        executor = resolve_executor(4)
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers == 4

    def test_explicit_modes(self):
        assert isinstance(resolve_executor(2, "serial"), SerialExecutor)
        assert isinstance(resolve_executor(2, "thread"), ThreadExecutor)
        assert isinstance(resolve_executor(2, "process"), ProcessExecutor)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_executor(2, "gpu")

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_executor(-1)

    def test_modes_constant_is_exhaustive(self):
        assert set(EXECUTOR_MODES) == {"auto", "serial", "thread", "process"}
