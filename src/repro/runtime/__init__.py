"""Parallel experiment runtime.

Shared execution layer for everything that solves games or simulates
replications in batches: requirement sweeps, figure reproductions, the
scenario suite, validation runs, campaigns and the CLI.  Three pieces
compose:

* :mod:`repro.runtime.executor` — the executor a worker count describes
  (serial for one worker, a process pool otherwise) with deterministic,
  submission-ordered reassembly;
* :mod:`repro.runtime.keys` — result identity: the key of a solve or a
  replication, and the digest a result store files it under;
* :mod:`repro.runtime.batch` — the :class:`BatchRunner` and its one
  memoized fan-out: each distinct item dispatched once, looked up in an
  attached result store and written behind as it lands.  There is no
  memory tier: across runs, only a store remembers.

The invariant the whole package is built around: a parallel run is
bit-identical to a serial run.  Results are reassembled by submission index
and the work is deterministic, so the worker count is purely a wall-clock
decision.
"""

from repro.runtime.batch import BatchRunner, Memo, SolveTask, TaskOutcome, build_runner
from repro.runtime.executor import (
    ExecutorPolicy,
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.runtime.keys import freeze, key_digest, model_fingerprint, solve_key

__all__ = [
    "BatchRunner",
    "Memo",
    "SolveTask",
    "TaskOutcome",
    "build_runner",
    "freeze",
    "key_digest",
    "model_fingerprint",
    "solve_key",
    "ExecutorPolicy",
    "ProcessExecutor",
    "SerialExecutor",
    "resolve_executor",
]
