"""Parallel experiment runtime.

Shared execution layer for everything that solves many games: requirement
sweeps, figure reproductions, the scenario suite, campaigns and the CLI.
Three pieces compose:

* :mod:`repro.runtime.executor` — the executor a worker count describes
  (serial for one worker, a process pool otherwise) with deterministic,
  submission-ordered reassembly;
* :mod:`repro.runtime.cache` — a thread-safe memo of game solutions keyed
  by (protocol model, requirements, solver options), optionally reading
  through and writing behind to a persistent result store;
* :mod:`repro.runtime.batch` — the :class:`BatchRunner` that chunks a batch
  of :class:`SolveTask`\\ s across workers with per-task error capture.

The invariant the whole package is built around: a parallel run is
bit-identical to a serial run.  Tasks are keyed by submission index and the
solves are deterministic, so the worker count is purely a wall-clock
decision.
"""

from repro.runtime.batch import BatchRunner, SolveTask, TaskOutcome, build_runner
from repro.runtime.cache import (
    CacheStats,
    SolveCache,
    default_cache,
    freeze,
    model_fingerprint,
    solve_key,
)
from repro.runtime.executor import (
    ExecutorPolicy,
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
)

__all__ = [
    "BatchRunner",
    "SolveTask",
    "TaskOutcome",
    "build_runner",
    "CacheStats",
    "SolveCache",
    "default_cache",
    "freeze",
    "model_fingerprint",
    "solve_key",
    "ExecutorPolicy",
    "ProcessExecutor",
    "SerialExecutor",
    "resolve_executor",
]
