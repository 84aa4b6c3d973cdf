"""Outside-in layer trace for the end-to-end benchmark.

The benchmark does not edit the program to trace it.  For a traced run it
wraps the functions that sit on each layer boundary — plan, batch dispatch,
executor, game solve and its solver stages, simulation, result store,
serialization, and the service's HTTP handler, queue and workers — by
replacing module and class attributes, and restores them afterwards.

Each wrapper opens a span on a per-thread stack.  When the span closes, its
duration is added to its layer's total and to the enclosing span's child
time, so a layer's *self time* is its total minus the time its child spans
cover.  Spans opened on other threads (service workers) or in other
processes (pool workers) are not children of the operation that caused
them; their self time is *busy time* of that layer, which can exceed the
operation's wall clock when work runs in parallel.

The accumulators live in shared memory created before any pool forks, so
forked pool workers add their spans to the same totals.  A hook point the
program no longer has is skipped, and its layer then reads zero.
"""

from __future__ import annotations

import functools
import importlib
import multiprocessing
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Traced layers, in report order.  ``op`` is the root span the benchmark
#: opens around each operation it times.
LAYERS = (
    "op",
    "plan",
    "batch",
    "executor",
    "game",
    "problem",
    "grid",
    "polish",
    "multistart",
    "simulate",
    "store_get",
    "serialize",
    "http",
    "execute",
    "journal",
    "publish",
)

#: Where each layer is entered: ``(layer, module, attribute path)``.  Every
#: path that exists is wrapped, so a layer keeps being traced when a later
#: version of the program calls it through another of these names.
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("plan", "repro.api.engine", "expand_plan"),
    ("batch", "repro.runtime.batch", "BatchRunner.run"),
    ("executor", "repro.runtime.executor", "SerialExecutor.map_ordered"),
    ("executor", "repro.runtime.executor", "_PoolExecutor.map_ordered"),
    ("game", "repro.core.bargaining", "NashBargainingSolver.solve"),
    ("problem", "repro.core.bargaining", "NashBargainingSolver.solve_energy_problem"),
    ("problem", "repro.core.bargaining", "NashBargainingSolver.solve_delay_problem"),
    ("problem", "repro.core.bargaining", "NashBargainingSolver.solve_bargaining_problem"),
    ("grid", "repro.optimization.hybrid", "grid_search"),
    ("grid", "repro.optimization.hybrid", "adaptive_grid_search"),
    ("polish", "repro.optimization.hybrid", "slsqp_solve"),
    ("multistart", "repro.optimization.hybrid", "multistart_slsqp"),
    ("simulate", "repro.validation.campaign", "simulate_protocol"),
    ("simulate", "repro.validation.campaign", "simulate_protocol_batched"),
    ("store_get", "repro.store.store", "ResultStore.get"),
    ("serialize", "repro.api.results", "ResultSet.json_text"),
    ("http", "repro.service.server", "_Handler.do_GET"),
    ("http", "repro.service.server", "_Handler.do_POST"),
    ("execute", "repro.service.workers", "WorkerPool._execute"),
    ("journal", "repro.service.jobs", "JobQueue._append"),
    ("publish", "repro.service.jobs", "JobQueue.finish"),
)

#: Counters kept beside the span accumulators.
COUNTERS = ("store_hits", "queue_waits", "queue_wait_s")

_CALLS, _TOTAL, _CHILD = 0, 1, 2


def _shared_array(size: int):
    """Zeroed doubles that forked pool workers write into as well."""
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # no fork on this platform: parent-side spans only
        context = multiprocessing.get_context()
    return context.Array("d", size)


class Tracer:
    """Span accumulators plus the hooks that feed them.

    Create one before the measured phase, :meth:`install` it, open one
    :meth:`span` per timed operation, then :meth:`snapshot` and
    :meth:`uninstall`.
    """

    def __init__(self) -> None:
        self._index = {layer: position for position, layer in enumerate(LAYERS)}
        self._counter = {
            name: 3 * len(LAYERS) + position for position, name in enumerate(COUNTERS)
        }
        self._shared = _shared_array(3 * len(LAYERS) + len(COUNTERS))
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #

    def _stack(self) -> List[List[float]]:
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            # A forked worker inherits its parent's open frames; they never
            # close in the child, so start from an empty stack.
            local.pid = os.getpid()
            local.stack = []
        return local.stack

    def _enter(self) -> List[float]:
        frame = [time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _exit(self, layer: int, frame: List[float]) -> None:
        duration = time.perf_counter() - frame[0]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += duration
        base = 3 * layer
        with self._shared.get_lock():
            self._shared[base + _CALLS] += 1
            self._shared[base + _TOTAL] += duration
            self._shared[base + _CHILD] += frame[1]

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to one of :data:`COUNTERS`."""
        with self._shared.get_lock():
            self._shared[self._counter[name]] += amount

    def span(self, layer: str) -> "_Span":
        """Context manager timing one span of ``layer``."""
        return _Span(self, self._index[layer])

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #

    def _wrap(self, layer: str, original: Callable) -> Callable:
        index = self._index[layer]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = tracer._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(index, frame)
            if layer == "store_get" and result is not None:
                tracer.count("store_hits")
            return result

        return traced

    def _wrap_claim(self, original: Callable) -> Callable:
        """Record how long each claimed job waited in the queue."""
        tracer = self

        @functools.wraps(original)
        def claim(*args, **kwargs):
            job = original(*args, **kwargs)
            started = getattr(job, "started_at", None)
            submitted = getattr(job, "submitted_at", None)
            if started is not None and submitted is not None:
                tracer.count("queue_waits")
                tracer.count("queue_wait_s", max(0.0, started - submitted))
            return job

        return claim

    def _patch(self, module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return
        *parents, attribute = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return
        original = owner.__dict__.get(attribute) if isinstance(owner, type) else getattr(
            owner, attribute, None
        )
        if not callable(original):
            return
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def install(self, hooks: Sequence[Tuple[str, str, str]] = HOOKS) -> None:
        """Wrap every hook point the program has."""
        for layer, module_name, path in hooks:
            self._patch(module_name, path, functools.partial(self._wrap, layer))
        self._patch("repro.service.jobs", "JobQueue.claim", self._wrap_claim)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``total_s`` and ``self_s``; plus the counters."""
        with self._shared.get_lock():
            values = list(self._shared)
        report: Dict[str, Dict[str, float]] = {}
        for layer, position in self._index.items():
            calls, total, child = values[3 * position : 3 * position + 3]
            report[layer] = {"calls": calls, "total_s": total, "self_s": total - child}
        report["counters"] = {name: values[index] for name, index in self._counter.items()}
        return report


class _Span:
    __slots__ = ("_tracer", "_layer", "_frame")

    def __init__(self, tracer: Tracer, layer: int) -> None:
        self._tracer = tracer
        self._layer = layer
        self._frame: Optional[List[float]] = None

    def __enter__(self) -> "_Span":
        self._frame = self._tracer._enter()
        return self

    def __exit__(self, *_: object) -> None:
        self._tracer._exit(self._layer, self._frame)
