"""Durable job queue of the experiment service.

One :class:`JobQueue` owns a directory::

    ROOT/
      jobs.jsonl            # append-only journal of submissions + transitions
      results/<job_id>.json # the finished ResultSet text, one file per job

Jobs are keyed by the spec's existing SHA-256 provenance hash
(:meth:`~repro.api.spec.ExperimentSpec.spec_hash`), which makes submission
idempotent for free: POSTing a spec that is already queued, running or done
returns the existing job instead of executing it again.  A job moves
through the state machine ::

    queued ──▶ running ──▶ done
       │           │
       │           └─────▶ failed
       └─────────────────▶ cancelled

and every transition is appended to the journal (write + flush + fsync)
*after* any artifact it depends on is safely on disk — a ``done`` event is
only journaled once the result file has been published with an atomic
rename.  Restarting a queue replays the journal: finished jobs come back
finished with their results readable, jobs that were ``queued`` or caught
mid-``running`` by a crash are re-queued (the shared result store makes the
re-run incremental), and a torn final line — the signature of a crash
mid-append — is ignored.  ``failed`` and ``cancelled`` are sticky across
restarts; resubmitting such a job re-queues it explicitly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.api.spec import ExperimentSpec
from repro.exceptions import ReproError

__all__ = ["JOB_STATES", "TERMINAL_STATES", "Job", "JobError", "JobQueue"]

#: Every state of the job lifecycle, in documentation order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job only leaves through an explicit resubmission.
TERMINAL_STATES = ("done", "failed", "cancelled")

_JOURNAL_NAME = "jobs.jsonl"
_RESULTS_DIR = "results"


class JobError(ReproError):
    """A queue operation referenced an unknown job or an invalid transition."""


@dataclasses.dataclass
class Job:
    """One submitted experiment and its lifecycle bookkeeping.

    Mutable on purpose: instances live inside a :class:`JobQueue` and are
    only mutated under its lock.  Callers outside the queue should treat a
    returned job as a snapshot and use :meth:`summary` for reporting.

    Attributes:
        job_id: The spec's SHA-256 provenance hash.
        spec: The submitted experiment spec.
        state: Current state, one of :data:`JOB_STATES`.
        submitted_at: Unix time of the first submission.
        started_at: Unix time the last execution attempt began, if any.
        finished_at: Unix time the job reached a terminal state, if any.
        attempts: Number of times the job entered ``running``.
        error: Human-readable reason when the job failed.
        error_kind: Exception class name of the failure (what the HTTP
            layer maps to a status code).
        progress: Engine counters of the finished run (unit counts plus
            the cache/store hit/miss/put deltas from the run telemetry).
    """

    job_id: str
    spec: ExperimentSpec
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    error: str = ""
    error_kind: str = ""
    progress: Dict[str, object] = dataclasses.field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        """JSON-ready description used by the status and queue endpoints."""
        return {
            "job_id": self.job_id,
            "kind": self.spec.kind,
            "name": self.spec.name,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "error": self.error,
            "error_kind": self.error_kind,
            "progress": dict(self.progress),
        }


class JobQueue:
    """Disk-journaled FIFO queue of experiment jobs, safe across threads.

    Args:
        root: Queue directory (created if missing).  An existing journal is
            replayed before the queue accepts new work; see the module
            docstring for the replay rules.

    Raises:
        JobError: when the journal contains a structurally broken non-final
            line (a torn *final* line is tolerated as a crash artifact).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._results = self._root / _RESULTS_DIR
        self._results.mkdir(exist_ok=True)
        self._journal_path = self._root / _JOURNAL_NAME
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._requeued = self._replay()
        self._journal = open(self._journal_path, "a", encoding="utf-8")

    # ------------------------------------------------------------------ #
    # Journal
    # ------------------------------------------------------------------ #

    @property
    def root(self) -> Path:
        """The queue's directory."""
        return self._root

    @property
    def requeued(self) -> int:
        """Jobs the last journal replay put back into ``queued``."""
        return self._requeued

    def _append(self, event: Mapping[str, object]) -> None:
        """Durably append one journal event (caller holds the lock)."""
        self._journal.write(json.dumps(event, sort_keys=True) + "\n")
        self._journal.flush()
        os.fsync(self._journal.fileno())

    def _replay(self) -> int:
        """Rebuild the in-memory table from the journal; return requeues."""
        if not self._journal_path.exists():
            return 0
        lines = self._journal_path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except ValueError:
                if number == len(lines) - 1:
                    break  # torn final line: the crash interrupted an append
                raise JobError(
                    f"corrupt journal line {number + 1} in {self._journal_path}"
                ) from None
            self._apply(event, number + 1)
        requeued = 0
        for job in self._jobs.values():
            interrupted = job.state == "running"
            lost_result = job.state == "done" and not self._result_path(
                job.job_id
            ).exists()
            if interrupted or lost_result:
                job.state = "queued"
                requeued += 1
        return requeued

    def _apply(self, event: Mapping[str, object], line: int) -> None:
        """Apply one replayed journal event to the in-memory table."""
        kind = event.get("event")
        job_id = str(event.get("job_id", ""))
        if kind == "submit":
            try:
                spec = ExperimentSpec.from_dict(event["spec"])
            except (KeyError, ReproError) as error:
                raise JobError(
                    f"unreplayable submit on journal line {line}: {error}"
                ) from None
            if job_id not in self._jobs:
                self._order.append(job_id)
            self._jobs[job_id] = Job(
                job_id=job_id,
                spec=spec,
                submitted_at=float(event.get("at", 0.0)),
            )
        elif kind == "state":
            job = self._jobs.get(job_id)
            if job is None:
                raise JobError(
                    f"journal line {line} transitions unknown job {job_id[:12]}…"
                )
            job.state = str(event.get("state", job.state))
            if job.state == "running":
                job.attempts += 1
                job.started_at = float(event.get("at", 0.0))
            elif job.state in TERMINAL_STATES:
                job.finished_at = float(event.get("at", 0.0))
            job.error = str(event.get("error", ""))
            job.error_kind = str(event.get("error_kind", ""))
            progress = event.get("progress")
            if isinstance(progress, dict):
                job.progress = dict(progress)
        else:
            raise JobError(f"unknown journal event {kind!r} on line {line}")

    def _transition(self, job: Job, state: str, **extra: object) -> None:
        """Journal and apply one state change (caller holds the lock)."""
        now = time.time()
        job.state = state
        if state == "running":
            job.attempts += 1
            job.started_at = now
        elif state in TERMINAL_STATES:
            job.finished_at = now
        self._append({"event": "state", "job_id": job.job_id, "state": state,
                      "at": now, **extra})

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #

    def submit(self, spec: ExperimentSpec) -> Tuple[Job, bool]:
        """Enqueue a spec, deduplicated by its provenance hash.

        Args:
            spec: The experiment to run.  The job id is ``spec.spec_hash()``
                (runtime policy excluded), so two submissions that differ
                only in workers/cache/engine share one job — the first
                submission's runtime policy is the one that executes.

        Returns:
            ``(job, created)``.  ``created`` is ``False`` when the spec was
            already queued, running or done (idempotent resubmit) — a
            ``failed`` or ``cancelled`` job is re-queued instead, keeping
            its id and attempt count.
        """
        job_id = spec.spec_hash()
        with self._has_work:
            job = self._jobs.get(job_id)
            if job is not None:
                if job.state in ("failed", "cancelled"):
                    job.error = ""
                    job.error_kind = ""
                    job.progress = {}
                    job.finished_at = None
                    self._transition(job, "queued")
                    self._has_work.notify()
                return job, False
            job = Job(job_id=job_id, spec=spec, submitted_at=time.time())
            self._jobs[job_id] = job
            self._order.append(job_id)
            self._append({"event": "submit", "job_id": job_id,
                          "spec": spec.to_dict(), "at": job.submitted_at})
            self._has_work.notify()
            return job, True

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job.

        Args:
            job_id: The job to cancel.

        Returns:
            The cancelled job.

        Raises:
            JobError: when the job is unknown, already terminal, or
                running (the worker pool does not preempt a solve in
                flight; let it finish or restart the service).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobError(f"unknown job {job_id}")
            if job.state != "queued":
                raise JobError(
                    f"job {job_id[:12]}… is {job.state}; only queued jobs "
                    "can be cancelled"
                )
            self._transition(job, "cancelled")
            return job

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #

    def claim(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Move the oldest queued job to ``running`` and return it.

        Args:
            timeout: Seconds to block waiting for work; ``None`` waits
                forever.

        Returns:
            The claimed job, or ``None`` when the timeout expired with the
            queue empty.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._has_work:
            while True:
                for job_id in self._order:
                    job = self._jobs[job_id]
                    if job.state == "queued":
                        self._transition(job, "running")
                        return job
                if deadline is None:
                    self._has_work.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._has_work.wait(remaining)

    def finish(self, job_id: str, result_text: str,
               progress: Optional[Mapping[str, object]] = None) -> Job:
        """Publish a running job's result and mark it ``done``.

        The result file is staged and atomically renamed *before* the
        ``done`` event hits the journal, so a replayed ``done`` always has
        its result readable (and a crash between the two re-queues the job
        instead of serving nothing).

        Args:
            job_id: The running job.
            result_text: The ResultSet's canonical JSON text
                (:meth:`repro.api.results.ResultSet.json_text`), served
                verbatim by the result endpoint.
            progress: Final engine counters to surface on the status
                endpoint.

        Returns:
            The finished job.

        Raises:
            JobError: when the job is unknown or not running.
        """
        with self._lock:
            job = self._require_running(job_id, "finish")
            path = self._result_path(job_id)
            handle, staging = tempfile.mkstemp(
                prefix=f"{job_id[:12]}.", suffix=".tmp", dir=self._results
            )
            try:
                with os.fdopen(handle, "w", encoding="utf-8") as stream:
                    stream.write(result_text)
                    stream.flush()
                    os.fsync(stream.fileno())
                os.replace(staging, path)
            except BaseException:
                try:
                    os.unlink(staging)
                except OSError:
                    pass
                raise
            job.progress = dict(progress or {})
            self._transition(job, "done", progress=job.progress)
            return job

    def fail(self, job_id: str, error: str, error_kind: str = "") -> Job:
        """Mark a running job ``failed`` with a reason.

        Args:
            job_id: The running job.
            error: Human-readable failure reason.
            error_kind: Exception class name (drives the HTTP mapping).

        Returns:
            The failed job.

        Raises:
            JobError: when the job is unknown or not running.
        """
        with self._lock:
            job = self._require_running(job_id, "fail")
            job.error = error
            job.error_kind = error_kind
            self._transition(job, "failed", error=error, error_kind=error_kind)
            return job

    def _require_running(self, job_id: str, verb: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise JobError(f"unknown job {job_id}")
        if job.state != "running":
            raise JobError(f"cannot {verb} job {job_id[:12]}… in state {job.state}")
        return job

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def get(self, job_id: str) -> Optional[Job]:
        """The job under ``job_id``, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """All jobs in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def counts(self) -> Dict[str, int]:
        """Number of jobs per state (every state present, zeros included)."""
        counts = {state: 0 for state in JOB_STATES}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] += 1
        return counts

    def _result_path(self, job_id: str) -> Path:
        return self._results / f"{job_id}.json"

    def result_text(self, job_id: str) -> Optional[str]:
        """The stored result text of a ``done`` job, or ``None``."""
        try:
            return self._result_path(job_id).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def close(self) -> None:
        """Flush and close the journal handle (the queue becomes read-only)."""
        with self._lock:
            if not self._journal.closed:
                self._journal.flush()
                self._journal.close()
