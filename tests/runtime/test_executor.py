"""Tests for the executor policies (ordering, concurrency, errors) and the
process pool kept for the life of the process."""

from __future__ import annotations

import json
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.protocols.registry import register_protocol, unregister_protocol
from repro.protocols.xmac import XMACModel
from repro.runtime.executor import (
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
    shutdown_pools,
)
from repro.scenarios.presets import (
    register_scenario_preset,
    scenario_preset,
    unregister_scenario_preset,
)

ROOT = Path(__file__).resolve().parents[2]


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


def _slow_square(value):
    time.sleep(0.05)
    return value * value


def _die(_):
    os.kill(os.getpid(), signal.SIGKILL)


def _slsqp_native_threads(_):
    """Solve a small SLSQP problem, then count this process's threads that
    Python did not start (an OpenBLAS helper is one)."""
    from scipy.optimize import minimize

    minimize(
        lambda x: float((x[0] - 1.0) ** 2 + (x[1] - 2.0) ** 2),
        np.zeros(2),
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda x: 3.0 - x[0] - x[1]}],
    )
    return len(os.listdir("/proc/self/task")) - threading.active_count()


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


class TestKeptPool:
    def test_calls_share_the_kept_pool(self, pool_sizes):
        first = ProcessExecutor(workers=2).map_ordered(_pid, range(4))
        second = ProcessExecutor(workers=2).map_ordered(_pid, range(4))
        assert pool_sizes == [2]
        workers = {child.pid for child in multiprocessing.active_children()}
        assert set(first) | set(second) <= workers and len(workers) <= 2
        shutdown_pools()
        assert multiprocessing.active_children() == []

    def test_two_counts_in_a_row_leave_one_pool(self, pool_sizes):
        before = set(ProcessExecutor(workers=2).map_ordered(_pid, range(4)))
        after = set(ProcessExecutor(workers=3).map_ordered(_pid, range(6)))
        assert pool_sizes == [2, 3]
        # The first pool was joined when the second replaced it.
        workers = {child.pid for child in multiprocessing.active_children()}
        assert after <= workers and len(workers) <= 3
        assert before.isdisjoint(workers)

    def test_a_call_forks_no_more_workers_than_it_has_items(self, pool_sizes):
        executor = ProcessExecutor(workers=8)
        assert executor.map_ordered(_square, [1]) == [1]
        assert pool_sizes == [1]
        assert len(multiprocessing.active_children()) <= 1
        # A call with more items grows the pool, up to its worker count...
        assert executor.map_ordered(_square, range(5)) == [0, 1, 4, 9, 16]
        assert pool_sizes == [1, 5]
        assert len(multiprocessing.active_children()) <= 5
        # ...a smaller call runs on it, as long as the pool has no more
        # processes than that call's worker count...
        assert executor.map_ordered(_square, range(2)) == [0, 1]
        assert ProcessExecutor(workers=5).map_ordered(_square, range(9))[-1] == 64
        assert pool_sizes == [1, 5]
        # ...and a call of fewer workers replaces it with a smaller one.
        assert ProcessExecutor(workers=2).map_ordered(_square, range(9))[-1] == 64
        assert pool_sizes == [1, 5, 2]
        assert len(multiprocessing.active_children()) <= 2

    def test_empty_call_forks_nothing(self, pool_sizes):
        assert ProcessExecutor(workers=2).map_ordered(_square, []) == []
        assert pool_sizes == []

    def test_error_keeps_the_pool(self, pool_sizes):
        executor = ProcessExecutor(workers=2)
        with pytest.raises(ValueError, match="boom"):
            executor.map_ordered(_boom, range(4))
        assert executor.map_ordered(_square, range(3)) == [0, 1, 4]
        assert pool_sizes == [2]

    @pytest.mark.skipif(sys.platform != "linux", reason="the pool forks on Linux only")
    def test_broken_pool_is_dropped(self, pool_sizes):
        executor = ProcessExecutor(workers=2)
        before = set(executor.map_ordered(_pid, range(4)))
        # The call that finds the pool broken raises; the next one forks.
        with pytest.raises(BrokenProcessPool):
            executor.map_ordered(_die, range(2))
        after = set(executor.map_ordered(_pid, range(4)))
        assert pool_sizes == [2, 2]
        assert before.isdisjoint(after)

    @pytest.mark.parametrize("change", ["protocol", "scenario preset"])
    def test_registry_change_retires_the_pool(self, pool_sizes, change):
        executor = ProcessExecutor(workers=2)
        executor.map_ordered(_square, range(2))
        if change == "protocol":
            register_protocol("kept-pool-test", XMACModel)
            executor.map_ordered(_square, range(2))
            unregister_protocol("kept-pool-test")
        else:
            preset = scenario_preset("paper-default")
            register_scenario_preset(replace(preset, name="kept-pool-test"))
            executor.map_ordered(_square, range(2))
            unregister_scenario_preset("kept-pool-test")
        executor.map_ordered(_square, range(2))
        assert pool_sizes == [2, 2, 2]

    def test_threads_share_one_pool(self, pool_sizes):
        executor = ProcessExecutor(workers=2)
        barrier = threading.Barrier(2)
        results = {}

        def call(first):
            barrier.wait()
            results[first] = executor.map_ordered(_sleep_inverse, range(first, first + 4))

        threads = [threading.Thread(target=call, args=(first,)) for first in (0, 4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert results == {0: [0, 10, 20, 30], 4: [40, 50, 60, 70]}
        assert pool_sizes == [2]

    def test_calls_racing_shutdowns_all_land(self, pool_sizes):
        # More callers than CPUs, switching threads as often as they can,
        # with worker counts that replace each other's pool, while the pool
        # is shut down under them: a call must never submit to a pool that
        # is being shut down, nor lose an item.
        stop = threading.Event()
        wrong = []

        def call(first):
            executor = ProcessExecutor(workers=2 + first % 20 // 10)
            values = range(first, first + 6)
            try:
                for _ in range(5):
                    if executor.map_ordered(_square, values) != [v * v for v in values]:
                        wrong.append(first)
            except Exception as error:  # noqa: BLE001 - the assertion names it
                wrong.append(error)

        def shut_down():
            while not stop.is_set():
                shutdown_pools()
                time.sleep(0.005)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            closer = threading.Thread(target=shut_down)
            closer.start()
            callers = [threading.Thread(target=call, args=(10 * n,)) for n in range(6)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(120.0)
            stop.set()
            closer.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in [closer, *callers])
        assert wrong == []
        # Every retired pool was joined: one pool, of at most 3, is left.
        assert len(multiprocessing.active_children()) <= 3

    def test_call_in_flight_finishes_when_the_pools_shut_down(self, pool_sizes):
        executor = ProcessExecutor(workers=2)
        landed = threading.Event()
        results = []

        def call():
            results.append(
                executor.map_ordered(_slow_square, range(8), lambda *_: landed.set())
            )

        thread = threading.Thread(target=call)
        thread.start()
        assert landed.wait(60.0)
        shutdown_pools()  # the rest of the call's items are still pending
        thread.join(60.0)
        assert results == [[i * i for i in range(8)]]
        assert multiprocessing.active_children() == []
        executor.map_ordered(_square, range(2))
        assert pool_sizes == [2, 2]

    def test_call_in_flight_finishes_when_another_call_retires_its_pool(self, pool_sizes):
        landed = threading.Event()
        results = []

        def call():
            results.append(
                ProcessExecutor(workers=2).map_ordered(
                    _slow_square, range(8), lambda *_: landed.set()
                )
            )

        thread = threading.Thread(target=call)
        thread.start()
        assert landed.wait(60.0)
        # A call of another worker count retires the pool the first call's
        # remaining items are still pending on.
        assert ProcessExecutor(workers=3).map_ordered(_square, range(3)) == [0, 1, 4]
        thread.join(60.0)
        assert results == [[i * i for i in range(8)]]
        assert pool_sizes == [2, 3]
        assert len(multiprocessing.active_children()) <= 3

    @pytest.mark.skipif(sys.platform != "linux", reason="the pool forks on Linux only")
    def test_forked_worker_starts_no_openblas_helper(self):
        # SciPy, and with it its OpenBLAS, in the parent; the library itself
        # calls no BLAS, but a pooled task may.
        pytest.importorskip("scipy.optimize")
        with open("/proc/self/maps", encoding="utf-8") as maps:
            if "openblas" not in maps.read().lower():
                pytest.skip("no OpenBLAS mapped into this process")
        # The workers must inherit this process's OpenBLAS, not load their own.
        shutdown_pools()
        # Uncapped, the SLSQP would start an OpenBLAS helper thread in the
        # worker that busy-waits on another worker's CPU.
        assert ProcessExecutor(workers=2).map_ordered(_slsqp_native_threads, range(2)) == [0, 0]


def _alive(pid):
    """Whether a process runs; a zombie counts as gone, since PID 1 in a
    container may never reap an orphan."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


#: Runs a pooled campaign, prints its workers' pids, then idles if asked.
_POOLED_CAMPAIGN = """
import json, multiprocessing, sys, time
from repro.api import ExperimentSpec, run
run(ExperimentSpec.from_dict({spec!r}))
print(json.dumps(sorted(child.pid for child in multiprocessing.active_children())), flush=True)
if {idle!r}:
    time.sleep(120)
"""

CAMPAIGN = {
    "kind": "campaign",
    "scenarios": ["paper-default"],
    "protocols": ["xmac", "lmac"],
    "campaign": {"replications": 2, "horizon": 300.0},
    "solver": {"grid_points": 12},
    "runtime": {"workers": 2, "cache": False},
}

#: A protocol registered in ``__main__`` after a first pooled run: workers
#: forked before it cannot unpickle the class.
_LATE_PROTOCOL = """
import json
from repro.api import ExperimentSpec, run
from repro.protocols.registry import register_protocol
from repro.protocols.xmac import XMACModel

def suite(*protocols):
    return ExperimentSpec.from_dict({
        "kind": "suite", "scenarios": ["paper-default"], "protocols": list(protocols),
        "solver": {"grid_points": 12}, "runtime": {"workers": 2, "cache": False},
    })

run(suite("xmac", "lmac"))

class LateMAC(XMACModel):
    pass

register_protocol("late", LateMAC)
print(json.dumps([[row["protocol"], row["E_star"]] for row in run(suite("late", "xmac")).rows()]))
"""


#: Forks a child after a pooled call; the child runs a pooled call itself.
_FORK_AFTER_A_POOLED_RUN = """
import json, os, signal
from repro.runtime import executor

def pid(_):
    return os.getpid()

workers = executor.ProcessExecutor(workers=2).map_ordered(pid, range(4))
write_end = executor._LIFELINE[1]
child = os.fork()
if child == 0:
    signal.alarm(30)  # a hung pooled call ends the child, not the test
    try:
        os.fstat(write_end)
        held = True
    except OSError:
        held = False
    pool = executor.ProcessExecutor(workers=2)
    squares = pool.map_ordered(abs, [0, -1, -4, -9])
    pids = sorted(set(pool.map_ordered(pid, range(4))))
    executor.shutdown_pools()
    print(json.dumps({"held": held, "squares": squares, "workers": pids}), flush=True)
    os._exit(0)
_, status = os.waitpid(child, 0)
print(json.dumps({"status": status, "workers": sorted(set(workers))}), flush=True)
"""


def _python(code, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return [sys.executable, "-c", code], dict(cwd=str(ROOT), env=env, text=True, **kwargs)


@pytest.mark.skipif(sys.platform != "linux", reason="the pool forks on Linux only")
class TestPoolLifetime:
    """No worker outlives the process that forked it, however it ends."""

    def test_a_pooled_run_returns_and_leaves_no_worker(self):
        # Were a worker left, it would hold the captured stdout open, and
        # the run would not return.
        args, kwargs = _python(_POOLED_CAMPAIGN.format(spec=CAMPAIGN, idle=False))
        completed = subprocess.run(args, capture_output=True, timeout=60, **kwargs)
        assert completed.returncode == 0, completed.stderr
        workers = json.loads(completed.stdout.splitlines()[-1])
        assert 1 <= len(workers) <= 2
        assert [pid for pid in workers if _alive(pid)] == []

    def test_workers_exit_when_their_parent_is_killed(self):
        args, kwargs = _python(_POOLED_CAMPAIGN.format(spec=CAMPAIGN, idle=True))
        process = subprocess.Popen(args, stdout=subprocess.PIPE, **kwargs)
        workers = []
        try:
            ready, _, _ = select.select([process.stdout], [], [], 60.0)
            assert ready, "the pooled run did not report its workers"
            workers = json.loads(process.stdout.readline())
            assert 1 <= len(workers) <= 2
            process.kill()  # SIGKILL, while the pool is idle
            process.wait(10.0)
            deadline = time.monotonic() + 5.0
            while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in workers if _alive(pid)] == []
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_a_child_forked_after_a_pooled_run_starts_with_no_pool(self):
        args, kwargs = _python(_FORK_AFTER_A_POOLED_RUN)
        completed = subprocess.run(args, capture_output=True, timeout=60, **kwargs)
        assert completed.returncode == 0, completed.stderr
        child, parent = (json.loads(line) for line in completed.stdout.splitlines()[-2:])
        # The child's pooled call returned, on workers of its own, and the
        # child held no write end of its parent's lifeline.
        assert parent["status"] == 0
        assert child["held"] is False and child["squares"] == [0, 1, 4, 9]
        assert child["workers"] and set(child["workers"]).isdisjoint(parent["workers"])

    def test_a_protocol_registered_after_a_pooled_run_reaches_the_workers(self):
        args, kwargs = _python(_LATE_PROTOCOL)
        completed = subprocess.run(args, capture_output=True, timeout=60, **kwargs)
        assert completed.returncode == 0, completed.stderr
        (late, energy), (xmac, xmac_energy) = json.loads(completed.stdout.splitlines()[-1])
        assert (late, xmac) == ("late", "xmac")
        assert energy == xmac_energy
