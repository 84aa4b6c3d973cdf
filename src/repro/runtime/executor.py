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

One process pool is kept for the life of the process.  It is made at the
process's first parallel call, for as many workers as that call has items
(at most its worker count), and every later call, run, CLI command and
service job reuses it while it fits: a call runs on the kept pool when the
pool has no more processes than the call's worker count and at least as
many as its items and workers (the smaller of the two).  A call it does not
fit retires it and makes one that does, so a call never runs on more
processes than it asked for, and the process keeps one pool, never more
processes than its largest call has needed.  The pool keeps these
guarantees:

* No worker outlives the process.  At interpreter exit
  :mod:`concurrent.futures` joins the workers, and on Linux each worker
  watches a lifeline pipe whose only write end the parent holds, so it
  exits by itself once the parent is gone, however it ended (``SIGKILL``
  included).  Any process forked from this one closes its copy of that
  write end and starts with no pool of its own.
* A registry change retires the pool: a worker forked before a protocol or
  scenario preset was (un)registered does not know it, so the registries
  call :func:`shutdown_pools` and the next parallel call forks afresh.
* :func:`shutdown_pools` joins the pool's workers; the service calls it
  when it stops.
* A pool found broken (a worker died) is dropped by the call that finds it,
  which raises; the next call forks a fresh pool.
* Threads share the pool.  A call takes its pool and submits all its items
  under one lock, and a pool is retired only between submissions, so a call
  in flight finishes on the pool it started on.

On Linux, before a pool forks, ``numpy.random`` is imported (replications
draw from it, so no worker imports it on its own) and every OpenBLAS mapped
into the process is set to one thread and left there: a forked worker would
otherwise start an OpenBLAS helper thread at its first BLAS call (a task's,
or a caller's SciPy), which busy-waits on the CPU the other workers need.
"""

from __future__ import annotations

import abc
import ctypes
import multiprocessing
import os
import sys
import threading
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

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


#: ``(processes, pool)`` of the kept pool, or ``None``.  A call holds the
#: lock while it takes the pool and submits its items; the pool is replaced
#: only under it.
_POOL: Optional[Tuple[int, ProcessPoolExecutor]] = None
_POOL_LOCK = threading.Lock()
#: ``(read end, write end)`` of the pool workers' lifeline pipe, made at the
#: first fork.  Only this process keeps the write end: every process forked
#: from it closes its copy in :func:`_forget_pool_in_child`.
_LIFELINE: Optional[Tuple[int, int]] = None


def shutdown_pools() -> None:
    """Join the kept pool's workers; the next parallel call forks afresh.

    A call in flight on another thread still finishes on its pool: its
    items are submitted, and a pool runs what it was given before its
    workers exit.
    """
    global _POOL
    with _POOL_LOCK:
        kept, _POOL = _POOL, None
    if kept is not None:
        kept[1].shutdown(wait=True)


def _take_pool(
    workers: int, items: int
) -> Tuple[ProcessPoolExecutor, Optional[ProcessPoolExecutor]]:
    """The pool a call of ``workers`` workers and ``items`` items runs on,
    and the pool it retires, if any (the caller holds :data:`_POOL_LOCK`)."""
    global _POOL
    size = min(workers, items)
    if _POOL is not None and size <= _POOL[0] <= workers:
        return _POOL[1], None
    retired = None if _POOL is None else _POOL[1]
    _POOL = (size, _new_pool(size))
    return _POOL[1], retired


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    """Forget a broken pool, unless it was replaced already, and join it."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and _POOL[1] is pool:
            _POOL = None
    pool.shutdown(wait=True)


def _forget_pool_in_child() -> None:
    """In a forked child: hold no write end of the parent's lifeline, so the
    parent's workers still end with the parent, and start with no pool and
    an unheld lock (the parent's pool and manager thread are not the
    child's, and a fork from a pooled call copies the lock held)."""
    global _POOL, _POOL_LOCK, _LIFELINE
    if _LIFELINE is not None:
        os.close(_LIFELINE[1])
    _POOL, _POOL_LOCK, _LIFELINE = None, threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def _exit_with_parent(read_end: int) -> None:
    """Pool initializer: end this worker once its parent is gone.

    The parent holds the only write end (this worker closed its copy when
    it forked) and never writes, so the read returns only at EOF, when the
    parent has exited, however it ended.
    """

    def watch() -> None:
        os.read(read_end, 1)
        os._exit(1)

    threading.Thread(target=watch, name="repro-lifeline", daemon=True).start()


def _new_pool(workers: int) -> ProcessPoolExecutor:
    """A pool of at most ``workers`` processes, forked as it is submitted to.

    With the ``fork`` start method, Python 3.11.1 and later fork them all at
    the first submission; earlier versions fork one per submission that
    finds no worker idle.
    """
    global _LIFELINE
    if sys.platform != "linux" or "fork" not in multiprocessing.get_all_start_methods():
        return ProcessPoolExecutor(max_workers=workers)
    # Replications draw from numpy.random: imported before the fork, it is
    # inherited by every worker instead of imported by each.
    import numpy.random  # noqa: F401

    _cap_openblas_threads()
    if _LIFELINE is None:
        _LIFELINE = os.pipe()
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_exit_with_parent,
        initargs=(_LIFELINE[0],),
    )


class _PoolExecutor(ExecutorPolicy):
    """Submit/reassemble mechanics of the process pool.

    Kept apart from :class:`ProcessExecutor` because the end-to-end
    benchmark's layer trace (``perfbench/tracing.py``) wraps
    ``_PoolExecutor.map_ordered`` by that name.  On Linux the pool uses
    the ``fork`` start method so workers inherit the parent's imports
    (NumPy and the whole library) and the submitted callables only need to
    be picklable by reference.  Elsewhere the platform default is kept:
    forking is unsafe on macOS (Objective-C runtime aborts post-fork) and
    unavailable on Windows.

    The policy holds only its worker count: every instance runs on the
    process's kept pool while that pool fits its calls (see the module
    docstring).
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
        results: List[Any] = [None] * len(items)
        pending: Dict[Future, int] = {}
        retired: Optional[ProcessPoolExecutor] = None
        try:
            with _POOL_LOCK:
                pool, retired = _take_pool(self._workers, len(items))
                for index, item in enumerate(items):
                    pending[pool.submit(fn, item)] = index
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = pending.pop(future)
                    results[index] = future.result()
                    if on_result is not None:
                        on_result(index, results[index])
        except BrokenProcessPool:
            _drop_pool(pool)
            raise
        finally:
            # After an error, no worker takes this call's remaining items.
            for future in pending:
                future.cancel()
            # A retired pool still runs what other threads' calls gave it.
            if retired is not None:
                retired.shutdown(wait=True)
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
