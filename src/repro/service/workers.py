"""Worker pool draining the job queue onto the experiment engine.

Each worker is a daemon thread looping ``claim → run → finish/fail``.
Every job runs through :func:`repro.api.engine.runner_for` with the pool's
shared :class:`~repro.store.ResultStore`, so the whole service behaves like
one long-lived warm cache: the first submission of a spec solves it, every
later submission — same spec or one sharing work units — is answered from
the store in O(read), and the status endpoint's ``store_hits``/``misses``/
``puts`` counters come straight from the run telemetry.

A worker thread never dies to an exception: :class:`~repro.exceptions.ReproError`
subclasses (infeasible solve, bad spec) *and* unexpected errors both mark
the job ``failed`` (the exception class name is kept for the HTTP mapping)
and the worker claims the next job.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from repro.api import run as run_experiment
from repro.api.engine import runner_for
from repro.service.jobs import Job, JobQueue
from repro.store import ResultStore

__all__ = ["WorkerPool"]

#: Run-telemetry keys surfaced as job progress counters.
_PROGRESS_KEYS = (
    "cache_hits",
    "cache_misses",
    "store_hits",
    "store_misses",
    "store_puts",
)

#: How often an idle worker re-checks for shutdown, in seconds.
_CLAIM_TIMEOUT = 0.2


class WorkerPool:
    """Daemon threads executing queued jobs on a shared result store.

    Args:
        queue: The queue to drain.
        store: Persistent store every job's runner reads through and writes
            behind — the reason repeat submissions are answered warm.
            ``None`` runs each job cold (tests only).
        workers: Number of worker threads.
    """

    def __init__(
        self,
        queue: JobQueue,
        store: Optional[ResultStore] = None,
        workers: int = 2,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._queue = queue
        self._store = store
        self._count = workers
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    @property
    def store(self) -> Optional[ResultStore]:
        """The store shared by every job."""
        return self._store

    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return
        self._stop.clear()
        for index in range(self._count):
            thread = threading.Thread(
                target=self._loop, name=f"repro-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 10.0) -> None:
        """Ask the workers to finish their current job and join them."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []

    def _loop(self) -> None:
        while not self._stop.is_set():
            job = self._queue.claim(timeout=_CLAIM_TIMEOUT)
            if job is None:
                continue
            self._execute(job)

    def _execute(self, job: Job) -> None:
        try:
            runner = runner_for(job.spec, store=self._store)
            result = run_experiment(job.spec, runner=runner)
            progress = {
                "units": len(result.records),
                "ok": len(result.ok_records),
                "failed": len(result.failed_records),
            }
            for key in _PROGRESS_KEYS:
                if key in result.telemetry:
                    progress[key] = result.telemetry[key]
            self._queue.finish(job.job_id, result.json_text(), progress)
        except Exception as error:  # noqa: BLE001 - a job must never kill its worker
            self._queue.fail(job.job_id, str(error), type(error).__name__)
