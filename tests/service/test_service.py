"""Experiment service end-to-end over real HTTP.

Every test binds a ThreadingHTTPServer on an ephemeral loopback port and
drives it through :class:`ServiceClient` — the same path CI's identity
check uses.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.api import ExperimentSpec, run as run_experiment
from repro.api.engine import runner_for
from repro.service import (
    ExperimentService,
    JobFailedError,
    JobQueue,
    ServiceClient,
    ServiceError,
)
from repro.service import server as server_module
from repro.store import ResultStore

SOLVE = {
    "kind": "solve",
    "scenario": {"depth": 4, "density": 6, "sampling_period": 600.0},
    "protocols": ["xmac"],
    "solver": {"grid_points": 12},
}

SWEEP = {
    "kind": "sweep",
    "scenario": {"depth": 4, "density": 6, "sampling_period": 600.0},
    "protocols": ["xmac"],
    "sweep": {"parameter": "max_delay", "values": [3.0, 6.0]},
    "solver": {"grid_points": 12},
}

INFEASIBLE = {
    **SOLVE,
    "requirements": {"energy_budget": 1e-9, "max_delay": 1e-3},
    "solver": {"grid_points": 8},
}


@pytest.fixture
def service(tmp_path):
    with ExperimentService(store_dir=tmp_path / "store", workers=2) as service:
        yield service


@pytest.fixture
def client(service):
    return ServiceClient(service.url, timeout=30.0)


@pytest.fixture
def idle_service(tmp_path, monkeypatch):
    """A service whose workers never start: jobs stay deterministically queued."""
    service = ExperimentService(store_dir=tmp_path / "store", workers=1)
    monkeypatch.setattr(service.pool, "start", lambda: None)
    with service:
        yield service


def direct_bytes(spec_dict, store_dir) -> bytes:
    """What `repro run spec.json --store DIR --out` would write."""
    spec = ExperimentSpec.from_dict(spec_dict)
    runner = runner_for(spec, store=ResultStore(store_dir))
    return run_experiment(spec, runner=runner).json_text().encode("utf-8")


class TestHappyPath:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["jobs"]["queued"] == 0

    def test_submit_run_fetch_byte_identity(self, tmp_path, client):
        raw = client.run(SWEEP, timeout=120)
        assert raw == direct_bytes(SWEEP, tmp_path / "direct")
        payload = json.loads(raw.decode("utf-8"))
        assert payload["schema"] == "repro.api.resultset"
        assert payload["spec_sha256"] == ExperimentSpec.from_dict(SWEEP).spec_hash()

    def test_resubmit_after_completion_is_warm(self, tmp_path, client, service):
        first = client.run(SOLVE, timeout=120)
        job, created = client.submit(SOLVE)
        assert not created
        assert job["state"] == "done"
        assert client.result_bytes(str(job["job_id"])) == first
        # A fresh queue on the same store answers entirely from the store.
        with ExperimentService(
            store_dir=service.store.root, queue_dir=tmp_path / "queue2", workers=1
        ) as warm:
            warm_client = ServiceClient(warm.url)
            warm_client.run(SOLVE, timeout=120)
            progress = warm_client.status(str(job["job_id"]))["progress"]
            assert progress["store_misses"] == 0
            assert progress["store_puts"] == 0
            assert progress["store_hits"] > 0

    def test_status_reports_progress_and_store(self, client):
        job, _ = client.submit(SOLVE)
        client.wait(str(job["job_id"]), timeout=120)
        status = client.status(str(job["job_id"]))
        assert status["state"] == "done"
        assert status["progress"]["units"] == 1
        assert status["store"]["store_puts"] >= 1

    def test_queue_lists_jobs(self, client):
        job, _ = client.submit(SOLVE)
        client.wait(str(job["job_id"]), timeout=120)
        snapshot = client.queue()
        assert snapshot["counts"]["done"] == 1
        assert [item["job_id"] for item in snapshot["jobs"]] == [job["job_id"]]


class TestConcurrentSubmission:
    def test_n_threads_one_execution_identical_payloads(self, client):
        barrier = threading.Barrier(8)
        outcomes = []

        def submit_and_fetch():
            barrier.wait()
            job, created = client.submit(SWEEP)
            raw = client.wait(str(job["job_id"]), timeout=120)
            outcomes.append((created, raw))

        threads = [threading.Thread(target=submit_and_fetch) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(180)
        assert len(outcomes) == 8
        assert sum(1 for created, _ in outcomes) == 8
        assert sum(1 for created, _ in outcomes if created) == 1
        payloads = {raw for _, raw in outcomes}
        assert len(payloads) == 1  # everyone got the same bytes
        job_id = ExperimentSpec.from_dict(SWEEP).spec_hash()
        assert client.status(job_id)["attempts"] == 1  # executed exactly once


class TestKillAndRestart:
    def test_restart_replays_journal_and_completes_queued_job(self, tmp_path):
        store_dir = tmp_path / "store"
        queue_dir = tmp_path / "queue"
        # The "killed" server: jobs journaled, nothing executed.
        ResultStore(store_dir)
        queue = JobQueue(queue_dir)
        queue.submit(ExperimentSpec.from_dict(SOLVE))
        running, _ = queue.submit(ExperimentSpec.from_dict(SWEEP))
        queue.claim(timeout=0)  # SOLVE was mid-flight when the crash hit
        queue.close()

        with ExperimentService(
            store_dir=store_dir, queue_dir=queue_dir, workers=2
        ) as service:
            assert service.queue.requeued == 1
            client = ServiceClient(service.url)
            solve_id = ExperimentSpec.from_dict(SOLVE).spec_hash()
            assert client.wait(solve_id, timeout=120) == direct_bytes(
                SOLVE, tmp_path / "direct-solve"
            )
            assert client.wait(str(running.job_id), timeout=120) == direct_bytes(
                SWEEP, tmp_path / "direct-sweep"
            )


class TestParentFormatJournal:
    @pytest.mark.parametrize(
        "solver_keys, runtime_keys, named",
        [
            # Before the solver-method and simulation-engine knobs went.
            (
                {"method": "exhaustive", "coarse_points": 11, "refine_rounds": 3, "top_k": 3},
                {"sim_engine": "scalar", "solver_method": None},
                "unknown solver key(s): coarse_points, method, refine_rounds, top_k",
            ),
            # Before the executor-mode and chunk-size knobs went: every
            # submit carries both, with their defaults.
            ({}, {"mode": "auto", "chunk_size": None}, "unknown runtime key(s): chunk_size, mode"),
        ],
        ids=["solver-method", "runtime-mode"],
    )
    def test_serve_refuses_a_journal_with_removed_keys(
        self, tmp_path, capsys, solver_keys, runtime_keys, named
    ):
        # Every submit event of such a journal carries the removed keys.
        # The service must refuse to start, naming the key — no traceback,
        # and no job silently dropped.
        from repro.cli import EXIT_ERROR, main as cli_main

        spec = ExperimentSpec.from_dict(SOLVE)
        payload = spec.to_dict()
        payload["solver"].update(solver_keys)
        payload["runtime"].update(runtime_keys)
        queue_dir = tmp_path / "queue"
        queue_dir.mkdir()
        (queue_dir / "jobs.jsonl").write_text(
            json.dumps(
                {"event": "submit", "job_id": spec.spec_hash(), "spec": payload, "at": 1.0}
            )
            + "\n"
        )
        argv = ["serve", "--store", str(tmp_path / "store"), "--queue", str(queue_dir),
                "--port", "0"]
        assert cli_main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: unreplayable submit on journal line 1: ")
        assert named in err
        assert "Traceback" not in err


class TestErrorStatuses:
    def test_submit_broken_json_is_400(self, service):
        client = ServiceClient(service.url)
        status, _ = client._request("POST", "/jobs", b"{not json")
        assert status == 400

    def test_submit_bad_spec_is_400_with_kind(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "frobnicate"})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error_kind"] == "ConfigurationError"

    @pytest.mark.parametrize(
        "section, key",
        [
            ("solver", "method"),
            ("solver", "vectorize"),
            ("runtime", "sim_engine"),
            ("runtime", "solver_method"),
            ("runtime", "mode"),
            ("runtime", "chunk_size"),
        ],
    )
    def test_submit_removed_key_is_400_naming_it(self, client, section, key):
        spec = {**SOLVE, section: {**SOLVE.get(section, {}), key: "x"}}
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error_kind"] == "ConfigurationError"
        assert f"unknown {section} key(s): {key}" in excinfo.value.payload["error"]

    def test_submit_non_finite_number_is_400_naming_it(self, client):
        # json.dumps writes NaN, and Python's json reads it back as a float.
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "validate", "simulation": {"horizon": float("nan")}})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error_kind"] == "ConfigurationError"
        assert "simulation.horizon must be finite" in excinfo.value.payload["error"]

    def test_unknown_job_is_404(self, client):
        for call in (client.status, client.result_bytes, client.cancel):
            with pytest.raises(ServiceError) as excinfo:
                call("deadbeef")
            assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/nonsense")
        assert excinfo.value.status == 404

    def test_failed_job_result_is_409(self, client):
        job, _ = client.submit(INFEASIBLE)
        with pytest.raises(JobFailedError) as excinfo:
            client.wait(str(job["job_id"]), timeout=120)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["error_kind"] == "InfeasibleProblemError"
        assert client.status(str(job["job_id"]))["state"] == "failed"

    def test_pending_result_is_202_and_cancel_roundtrip(self, idle_service):
        client = ServiceClient(idle_service.url)
        job, _ = client.submit(SOLVE)
        assert client.result_bytes(str(job["job_id"])) is None  # 202
        assert client.status(str(job["job_id"]))["state"] == "queued"
        cancelled = client.cancel(str(job["job_id"]))
        assert cancelled["state"] == "cancelled"
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(str(job["job_id"]))  # no longer queued
        assert excinfo.value.status == 409

    def test_resubmit_requeues_failed_job(self, client):
        job, _ = client.submit(INFEASIBLE)
        with pytest.raises(JobFailedError):
            client.wait(str(job["job_id"]), timeout=120)
        resubmitted, created = client.submit(INFEASIBLE)
        assert not created
        assert resubmitted["state"] in ("queued", "running", "failed")
        with pytest.raises(JobFailedError):  # same spec, same verdict
            client.wait(str(job["job_id"]), timeout=120)
        assert client.status(str(job["job_id"]))["attempts"] == 2


def raw_post(service, headers: bytes, body: bytes = b"", end_body: bool = False) -> bytes:
    """POST /v1/jobs over a bare socket; everything read until the server closes."""
    with socket.create_connection((service.host, service.port), timeout=5.0) as sock:
        sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n" + headers + b"\r\n" + body)
        if end_body:
            sock.shutdown(socket.SHUT_WR)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received
            received += chunk


class TestRequestBodyBounds:
    """Malformed lengths are answered before the body is read, and the
    service stays healthy afterwards."""

    @pytest.fixture(autouse=True)
    def still_healthy(self, client):
        yield
        assert client.healthz()["status"] == "ok"

    def test_negative_content_length_is_400(self, service):
        reply = raw_post(service, b"Content-Length: -1\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"invalid Content-Length" in reply

    def test_malformed_content_length_is_400(self, service):
        reply = raw_post(service, b"Content-Length: lots\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_oversized_content_length_is_413(self, service):
        length = server_module.MAX_BODY_BYTES + 1
        reply = raw_post(service, b"Content-Length: %d\r\n" % length)
        assert reply.startswith(b"HTTP/1.1 413 ")

    def test_body_shorter_than_its_length_is_400(self, service):
        reply = raw_post(service, b"Content-Length: 100\r\n", b'{"kind": ', end_body=True)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"ended after 9 of 100 bytes" in reply

    def test_stalled_body_closes_the_connection(self, service, monkeypatch):
        assert server_module._Handler.timeout == server_module.REQUEST_TIMEOUT_S > 0
        monkeypatch.setattr(server_module._Handler, "timeout", 0.5)
        # The client never sends the rest of the body nor closes its side:
        # the server gives up on the connection without answering.
        assert raw_post(service, b"Content-Length: 100\r\n", b'{"kind": ') == b""
