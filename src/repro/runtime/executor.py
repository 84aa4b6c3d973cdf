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

A process pool lives for one :meth:`ExecutorPolicy.session`: it is forked
at the session's first parallel call, reused by every later call, and shut
down (waiting for its workers) when the outermost session exits, on error
too.  A call made outside a session is a session of its own, and a
campaign holds one across its solve and replication stages.  On Linux,
before a pool forks, every OpenBLAS mapped into the process is set to one
thread and left there: a forked worker would otherwise start an OpenBLAS
helper thread at its first BLAS call (a task's, or a caller's SciPy), which
busy-waits on the CPU the other workers need.
"""

from __future__ import annotations

import abc
import contextlib
import ctypes
import multiprocessing
import os
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Iterable, Iterator, List, Optional

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


#: Symbol names of OpenBLAS's thread-count getter and setter: the stock
#: build, and the ``scipy_``-prefixed (``64_``-suffixed for 64-bit integer)
#: builds that NumPy and SciPy wheels vendor.
_OPENBLAS_SYMBOLS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("", "scipy_")
    for suffix in ("", "64_")
)


def _cap_openblas_threads() -> None:
    """Set every OpenBLAS mapped into this process to one thread (Linux).

    The libraries are the ones ``/proc/self/maps`` lists; each is set
    through its public setter, and only when it is not at one thread
    already, because the setter restarts OpenBLAS's helper threads once a
    fork has stopped them.  The count is never restored.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = {
                line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line.lower()
            }
    except OSError:
        return
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # not a loaded shared object (e.g. a deleted file)
            continue
        for getter_name, setter_name in _OPENBLAS_SYMBOLS:
            if hasattr(library, getter_name) and hasattr(library, setter_name):
                getter = getattr(library, getter_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter = getattr(library, setter_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                if getter() != 1:
                    setter(1)
                break


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

    @contextlib.contextmanager
    def session(self) -> Iterator["ExecutorPolicy"]:
        """Keep what the policy starts alive across calls until the exit.

        Reentrant: only the outermost exit releases anything.  The serial
        policy starts nothing, so its session does nothing.
        """
        yield self

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
    ``_PoolExecutor.map_ordered`` by that name.  On Linux the pool uses
    the ``fork`` start method so workers inherit the parent's imports
    (NumPy and the whole library) and the submitted callables only need to
    be picklable by
    reference.  Elsewhere the platform default is kept: forking is unsafe
    on macOS (Objective-C runtime aborts post-fork) and unavailable on
    Windows.

    The pool is forked at the first call of a :meth:`session`, with as many
    workers as that call has items (at most :attr:`workers`), and reused by
    later calls; a call with more items than the pool has workers replaces
    it with a larger one, so no call runs on fewer processes than it has
    items and workers.  A session belongs to one thread at a time.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self._workers = _effective_workers(workers)
        self._depth = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_size = 0

    @property
    def workers(self) -> int:
        return self._workers

    @contextlib.contextmanager
    def session(self) -> Iterator["ExecutorPolicy"]:
        self._depth += 1
        try:
            yield self
        finally:
            self._depth -= 1
            if self._depth == 0:
                self._shutdown()

    def _shutdown(self) -> None:
        pool, self._pool, self._pool_size = self._pool, None, 0
        if pool is not None:
            pool.shutdown(wait=True)

    def _pool_for(self, items: int) -> ProcessPoolExecutor:
        size = min(self._workers, items)
        if self._pool_size < size:
            self._shutdown()
            context = None
            if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
                _cap_openblas_threads()
            self._pool = ProcessPoolExecutor(max_workers=size, mp_context=context)
            self._pool_size = size
        return self._pool  # type: ignore[return-value]

    def map_ordered(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        on_result: Optional[ResultCallback] = None,
    ) -> List[Any]:
        items = list(items)
        if not items:
            return []
        results: List[Any] = [None] * len(items)
        with self.session():
            pool = self._pool_for(len(items))
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
