"""The experiment service: a stdlib-only HTTP front end over the job queue.

:class:`ExperimentService` wires the persistent pieces together — one
shared :class:`~repro.store.ResultStore`, one journaled
:class:`~repro.service.jobs.JobQueue` (default ``STORE/jobs``), a
:class:`~repro.service.workers.WorkerPool` — and puts a small REST API in
front (``http.server.ThreadingHTTPServer``; no new dependencies):

========  ==========================  =============================================
Method    Path                        Meaning
========  ==========================  =============================================
POST      ``/v1/jobs``                submit a spec (201 new, 200 already known)
GET       ``/v1/jobs/{id}``           job status + progress counters
GET       ``/v1/jobs/{id}/result``    the ResultSet JSON (200 done, 202 pending,
                                      409 failed/cancelled)
DELETE    ``/v1/jobs/{id}``           cancel a queued job
GET       ``/v1/queue``               every job + per-state counts + store stats
GET       ``/v1/healthz``             liveness probe
========  ==========================  =============================================

A POST body longer than :data:`MAX_BODY_BYTES` is answered with 413 and a
negative, malformed or unfulfilled ``Content-Length`` with 400, both without
reading past the headers; a connection that stalls mid-request is closed
after :data:`REQUEST_TIMEOUT_S`.  A submitted spec is planned before it is
queued, so a spec the planner refuses (an unknown name, a horizon whose
packet generations alone exceed the simulator's event budget) is a 400
too, never a job that fails.

The result endpoint serves the bytes the worker stored —
:meth:`ResultSet.json_text() <repro.api.results.ResultSet.json_text>`
verbatim — so a POSTed spec answers byte-identically to
``repro run spec.json --out`` on the same store.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro import __version__
from repro.api.plan import plan
from repro.api.spec import ExperimentSpec
from repro.exceptions import ReproError
from repro.runtime.executor import shutdown_pools
from repro.service.jobs import JobQueue
from repro.service.workers import WorkerPool
from repro.store import ResultStore

__all__ = ["ExperimentService", "API_PREFIX"]

#: Every route of the API lives under this prefix.
API_PREFIX = "/v1"

_JSON = "application/json"

#: Largest request body the service reads, in bytes.  A spec document is
#: well under 1 KB; a longer body is answered with 413 before any of it is
#: read.
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may stall mid-request (or idle between keep-alive
#: requests) before the handler closes it, so a client that sends less body
#: than its Content-Length promised cannot hold a handler thread.
REQUEST_TIMEOUT_S = 10.0


class _Handler(BaseHTTPRequestHandler):
    """Request handler; the owning service hangs off ``self.server``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service/" + __version__
    timeout = REQUEST_TIMEOUT_S

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    @property
    def service(self) -> "ExperimentService":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.service.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send(
        self, status: int, body: bytes, content_type: str = _JSON, close: bool = False
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self, status: int, payload: Dict[str, object], close: bool = False
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, body, close=close)

    def _error(self, status: int, message: str, kind: str = "", close: bool = False) -> None:
        self._send_json(status, {"error": message, "error_kind": kind}, close=close)

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` once a bad length has been answered.

        A rejected request closes the connection: body bytes left unread
        would otherwise be parsed as the next request.
        """
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            self._error(400, f"invalid Content-Length: {header!r}", close=True)
            return None
        if length > MAX_BODY_BYTES:
            self._error(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                close=True,
            )
            return None
        body = self.rfile.read(length)
        if len(body) < length:
            self._error(
                400, f"request body ended after {len(body)} of {length} bytes", close=True
            )
            return None
        return body

    def _route(self) -> Tuple[str, str]:
        """``(route, job_id)`` of the request path, with the prefix stripped."""
        path = self.path.split("?", 1)[0].rstrip("/")
        if not path.startswith(API_PREFIX):
            return "", ""
        parts = [part for part in path[len(API_PREFIX):].split("/") if part]
        if parts[:1] == ["jobs"] and len(parts) == 2:
            return "job", parts[1]
        if parts[:1] == ["jobs"] and len(parts) == 3 and parts[2] == "result":
            return "result", parts[1]
        if len(parts) == 1:
            return parts[0], ""
        return "", ""

    # ------------------------------------------------------------------ #
    # Methods
    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        route, job_id = self._route()
        if route == "healthz":
            self._send_json(200, self.service.health())
        elif route == "queue":
            self._send_json(200, self.service.queue_snapshot())
        elif route == "job":
            self._get_status(job_id)
        elif route == "result":
            self._get_result(job_id)
        else:
            self._error(404, f"no such route: {self.path}")

    def do_POST(self) -> None:  # noqa: N802
        route, _ = self._route()
        if route != "jobs":
            self._error(404, f"no such route: {self.path}")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body.decode("utf-8"))
            spec = ExperimentSpec.from_dict(payload)
            plan(spec)  # what the planner refuses is refused at submit
        except (ValueError, TypeError) as error:
            self._error(400, f"request body is not valid JSON: {error}")
            return
        except ReproError as error:
            # The CLI exits EXIT_ERROR (2) on these; the service's analogue
            # is a 400 naming the exception class.
            self._error(400, str(error), type(error).__name__)
            return
        job, created = self.service.queue.submit(spec)
        self._send_json(201 if created else 200, job.summary())

    def do_DELETE(self) -> None:  # noqa: N802
        route, job_id = self._route()
        if route != "job":
            self._error(404, f"no such route: {self.path}")
            return
        queue = self.service.queue
        job = queue.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id}")
            return
        try:
            self._send_json(200, queue.cancel(job_id).summary())
        except ReproError as error:
            self._error(409, str(error), type(error).__name__)

    def _get_status(self, job_id: str) -> None:
        job = self.service.queue.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id}")
            return
        summary = job.summary()
        summary["store"] = self.service.store_stats()
        self._send_json(200, summary)

    def _get_result(self, job_id: str) -> None:
        queue = self.service.queue
        job = queue.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id}")
            return
        if job.state in ("queued", "running"):
            self._send_json(202, job.summary())
            return
        if job.state in ("failed", "cancelled"):
            self._error(409, job.error or f"job is {job.state}", job.error_kind)
            return
        text = queue.result_text(job_id)
        if text is None:  # done event journaled but result vanished on disk
            self._error(500, f"result of done job {job_id} is missing")
            return
        self._send(200, text.encode("utf-8"))


class _Server(ThreadingHTTPServer):
    """The HTTP server, serving until :meth:`stop_serving` without polling.

    ``serve_forever`` re-checks its shutdown flag only every 0.5 s, so a
    stop would wait out that poll.  :meth:`serve_until_stopped` also
    watches a wake-up socket, so :meth:`stop_serving` ends it at once.
    """

    daemon_threads = True
    #: ``handle_request`` must not block: it only runs once the selector
    #: has seen a connection waiting.
    timeout = 0

    def __init__(self, address: Tuple[str, int], service: "ExperimentService") -> None:
        super().__init__(address, _Handler)
        self.service = service
        self._wake_reader, self._wake_writer = socket.socketpair()

    def serve_until_stopped(self) -> None:
        """Accept and dispatch connections until :meth:`stop_serving`."""
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._wake_reader, selectors.EVENT_READ)
            while True:
                ready = [key.fileobj for key, _ in selector.select()]
                if self._wake_reader in ready:
                    return
                self.handle_request()

    def stop_serving(self) -> None:
        """Make :meth:`serve_until_stopped` return now."""
        self._wake_writer.send(b"\0")

    def server_close(self) -> None:
        super().server_close()
        self._wake_reader.close()
        self._wake_writer.close()


class ExperimentService:
    """The assembled service: store + queue + worker pool + HTTP server.

    Args:
        store_dir: Persistent result store shared by every job (created if
            missing).  Opened *before* the queue so a fresh directory is a
            valid store by the time jobs land in it.
        queue_dir: Queue directory (journal + result files).  Defaults to
            ``STORE/jobs`` — the record tree under ``records/`` is not
            touched, so store verify/merge/gc ignore the queue.
        host: Bind address.
        port: Bind port; ``0`` picks a free one (see :attr:`port`).
        workers: Worker threads draining the queue.
        verbose: Log one line per request to stderr.
    """

    def __init__(
        self,
        store_dir: Union[str, Path],
        queue_dir: Optional[Union[str, Path]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        verbose: bool = False,
    ) -> None:
        self.verbose = verbose
        self.store = ResultStore(store_dir)
        self.queue = JobQueue(queue_dir or Path(store_dir) / "jobs")
        self.pool = WorkerPool(self.queue, store=self.store, workers=workers)
        self._host = host
        self._port = port
        self._httpd: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        """The bound address."""
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when 0 was asked)."""
        return self._port

    @property
    def url(self) -> str:
        """Base URL of the API, e.g. ``http://127.0.0.1:8642/v1``."""
        return f"http://{self._host}:{self._port}{API_PREFIX}"

    def health(self) -> Dict[str, object]:
        """The liveness payload of ``GET /v1/healthz``."""
        return {
            "status": "ok",
            "version": __version__,
            "workers": self.pool._count,
            "jobs": self.queue.counts(),
        }

    def store_stats(self) -> Dict[str, int]:
        """Shared-store counters, straight from :meth:`ResultStore.stats`."""
        return self.store.stats().as_dict()

    def queue_snapshot(self) -> Dict[str, object]:
        """The payload of ``GET /v1/queue``."""
        return {
            "counts": self.queue.counts(),
            "jobs": [job.summary() for job in self.queue.jobs()],
            "store": self.store_stats(),
        }

    def start(self) -> None:
        """Bind the socket and start the worker pool + serving thread."""
        if self._httpd is not None:
            return
        httpd = _Server((self._host, self._port), self)
        self._httpd = httpd
        self._host, self._port = httpd.server_address[0], httpd.server_address[1]
        self.pool.start()
        self._thread = threading.Thread(
            target=httpd.serve_until_stopped, name="repro-service-http", daemon=True
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Block until the server is stopped (the CLI's foreground mode)."""
        if self._thread is not None:
            while self._thread.is_alive():
                self._thread.join(0.5)

    def stop(self) -> None:
        """Stop serving, drain the workers, join the process pool, close the
        journal.

        Neither the serving thread nor an idle worker is polled: both are
        woken, so this returns as soon as any job still running finishes.
        Pooled jobs share the process's kept pool, and no pool is left once
        this returns.
        """
        if self._httpd is not None:
            self._httpd.stop_serving()
            if self._thread is not None:
                self._thread.join(5.0)
                self._thread = None
            self._httpd.server_close()
            self._httpd = None
        self.pool.stop()
        shutdown_pools()
        self.queue.close()

    def __enter__(self) -> "ExperimentService":
        self.start()
        return self

    def __exit__(self, *_: object) -> None:
        self.stop()
