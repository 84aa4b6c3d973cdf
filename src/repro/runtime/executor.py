"""Executor policies: where batched work runs.

The sweeps behind the paper's figures are embarrassingly parallel — one
independent game solve per (protocol, requirement value) pair — but the
results must stay reproducible: the output of a parallel run has to be
bit-identical to a serial run.  The policies here guarantee that by keying
every submitted item with its submission index and reassembling results in
submission order, no matter in which order the workers finish.

The worker count is the only choice: :func:`resolve_executor` maps ``1`` to
the :class:`SerialExecutor` (the reference semantics), ``N`` to a
:class:`ProcessExecutor` of ``N`` workers, and ``0`` to one worker per CPU
in the affinity mask.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Iterable, List, Optional

from repro.exceptions import ConfigurationError

#: Callback invoked as each item completes: ``on_result(index, result)``.
#: Completion order is arbitrary under the process policy; the *returned*
#: list is always in submission order.
ResultCallback = Callable[[int, Any], None]


def _effective_workers(workers: Optional[int]) -> int:
    if workers is None or workers <= 0:
        # The CPUs this process may run on: honours taskset/cgroup pinning
        # where the platform exposes an affinity mask.
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    return int(workers)


class ExecutorPolicy(abc.ABC):
    """How a batch of independent tasks is executed.

    Concrete policies differ only in *where* the function runs; all of them
    return results in submission order so callers cannot observe (and
    therefore cannot depend on) scheduling order.
    """

    #: Policy identifier used in reports (``"serial"``, ``"process"``).
    name: str = "abstract"

    @property
    @abc.abstractmethod
    def workers(self) -> int:
        """Number of concurrent workers the policy uses."""

    @abc.abstractmethod
    def map_ordered(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        on_result: Optional[ResultCallback] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every item and return results in submission order.

        Args:
            fn: The function applied to each item; under the process policy
                it must be picklable (module-level).
            items: The work items, consumed in submission order.
            on_result: Optional ``on_result(index, result)`` callback,
                invoked in the calling thread as each item completes.

        Returns:
            One result per item, ordered by submission index regardless of
            completion order.

        Raises:
            Exception: whatever ``fn`` raises propagates to the caller
                (per-task error *capture* is the
                :class:`~repro.runtime.batch.BatchRunner`'s job, not the
                executor's).
        """

    def describe(self) -> str:
        """Short human-readable label, e.g. ``"process[4]"``."""
        return f"{self.name}[{self.workers}]"


class SerialExecutor(ExecutorPolicy):
    """Run every item inline in the calling thread (reference semantics)."""

    name = "serial"

    @property
    def workers(self) -> int:
        return 1

    def map_ordered(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        on_result: Optional[ResultCallback] = None,
    ) -> List[Any]:
        results: List[Any] = []
        for index, item in enumerate(items):
            result = fn(item)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results


class _PoolExecutor(ExecutorPolicy):
    """Submit/reassemble mechanics of the process pool.

    Kept apart from :class:`ProcessExecutor` because the end-to-end
    benchmark's layer trace (``perfbench/tracing.py``) wraps
    ``_PoolExecutor.map_ordered`` by that name.  On Linux the pool uses the ``fork`` start method so workers inherit the
    parent's imports (numpy/scipy warm-up is paid once) and the submitted
    callables only need to be picklable by reference.  Elsewhere the
    platform default is kept: forking is unsafe on macOS (Objective-C
    runtime aborts post-fork) and unavailable on Windows.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self._workers = _effective_workers(workers)

    @property
    def workers(self) -> int:
        return self._workers

    def map_ordered(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        on_result: Optional[ResultCallback] = None,
    ) -> List[Any]:
        items = list(items)
        if not items:
            return []
        context = None
        if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        results: List[Any] = [None] * len(items)
        max_workers = min(self._workers, len(items))
        with ProcessPoolExecutor(max_workers=max_workers, mp_context=context) as pool:
            pending = {pool.submit(fn, item): index for index, item in enumerate(items)}
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = pending.pop(future)
                    results[index] = future.result()
                    if on_result is not None:
                        on_result(index, results[index])
        return results


class ProcessExecutor(_PoolExecutor):
    """Process-pool policy for CPU-bound Python work (the game solves).

    Args:
        workers: Pool size; ``None`` or ``0`` means one worker per CPU in
            the affinity mask.
    """

    name = "process"


def resolve_executor(workers: Optional[int] = None) -> ExecutorPolicy:
    """The executor policy a worker count describes.

    Args:
        workers: ``1`` selects the serial policy, ``N > 1`` a process pool
            of ``N`` workers, and ``None`` or ``0`` one worker per CPU this
            process may run on (its affinity mask where the platform has
            one, so a run pinned to one CPU resolves to serial).

    Raises:
        ConfigurationError: if ``workers`` is negative.
    """
    if workers is not None and workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    if _effective_workers(workers) <= 1:
        return SerialExecutor()
    return ProcessExecutor(workers)
