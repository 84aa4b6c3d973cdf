"""Experiment service end-to-end over real HTTP.

Every test binds a ThreadingHTTPServer on an ephemeral loopback port and
drives it through :class:`ServiceClient` — the same path CI's identity
check uses.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import threading
import time

import pytest

from repro.api import ExperimentSpec, run as run_experiment
from repro.api.engine import runner_for
from repro.runtime.executor import shutdown_pools
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


class TestProgressCountsOwnTraffic:
    SUITE = {
        "kind": "suite",
        "scenarios": ["paper-default"],
        "protocols": ["xmac", "lmac"],
        "solver": {"grid_points": 12},
    }
    CAMPAIGN = {
        "kind": "campaign",
        "name": "cold-campaign",
        "scenarios": ["paper-default"],
        "protocols": ["xmac", "lmac"],
        "campaign": {"replications": 6, "base_seed": 3, "horizon": 600.0},
        "solver": {"grid_points": 12},
    }

    def test_warm_jobs_beside_a_cold_campaign(self, tmp_path):
        # Two workers share one store: one runs a cold campaign, whose
        # misses and puts land throughout, while the other answers warm
        # suite jobs.  Each warm job reports exactly its own store traffic.
        store_dir = tmp_path / "store"
        direct_bytes(self.SUITE, store_dir)
        with ExperimentService(store_dir=store_dir, workers=2) as service:
            client = ServiceClient(service.url, timeout=60.0)
            campaign, _ = client.submit(self.CAMPAIGN)
            warm = [client.submit(dict(self.SUITE, name=f"warm-{n}"))[0] for n in range(20)]
            for job in [*warm, campaign]:
                client.wait(str(job["job_id"]), timeout=120)
            traffic = [
                tuple(
                    client.status(str(job["job_id"]))["progress"][key]
                    for key in ("store_hits", "store_misses", "store_puts")
                )
                for job in warm
            ]
            cold = client.status(str(campaign["job_id"]))["progress"]
        assert traffic == [(2, 0, 0)] * len(warm)
        # The campaign's 2 solves are the suite's games; its 12
        # replications were all fresh.
        assert (cold["store_hits"], cold["store_misses"], cold["store_puts"]) == (2, 12, 12)


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


class TestStop:
    def test_stop_leaves_no_pool_worker(self, tmp_path):
        # The job forks the process's kept two-worker pool; stop() joins it.
        shutdown_pools()
        campaign = dict(TestProgressCountsOwnTraffic.CAMPAIGN, runtime={"workers": 2})
        with ExperimentService(store_dir=tmp_path / "store", workers=1) as service:
            client = ServiceClient(service.url, timeout=60.0)
            job, _ = client.submit(campaign)
            client.wait(str(job["job_id"]), timeout=120)
            assert 1 <= len(multiprocessing.active_children()) <= 2
        assert multiprocessing.active_children() == []

    def test_stop_wakes_idle_threads_at_once(self, tmp_path):
        service = ExperimentService(store_dir=tmp_path / "store", workers=2)
        service.start()
        threads = [
            thread
            for thread in threading.enumerate()
            if thread.name.startswith(("repro-worker-", "repro-service-http"))
        ]
        assert len(threads) == 3
        started = time.perf_counter()
        service.stop()
        elapsed = time.perf_counter() - started
        assert not any(thread.is_alive() for thread in threads)
        # Nothing is polled: neither serve_forever's 0.5 s shutdown poll nor
        # a claim timeout is waited out.
        assert elapsed < 0.4

    def test_job_running_at_stop_still_finishes(self, tmp_path, monkeypatch):
        # The job is held until stop() wakes the queue, so it is still
        # running when the workers are told to stop.
        service = ExperimentService(store_dir=tmp_path / "store", workers=1)
        running = threading.Event()
        release = threading.Event()
        execute, wake = service.pool._execute, service.queue.wake

        def held_execute(job):
            running.set()
            release.wait(30.0)
            execute(job)

        def wake_and_release():
            wake()
            release.set()

        monkeypatch.setattr(service.pool, "_execute", held_execute)
        monkeypatch.setattr(service.queue, "wake", wake_and_release)
        service.start()
        job, _ = service.queue.submit(ExperimentSpec.from_dict(SOLVE))
        assert running.wait(30.0)
        service.stop()
        assert release.is_set()
        assert service.queue.get(job.job_id).state == "done"
        assert service.queue.result_text(job.job_id) == direct_bytes(
            SOLVE, tmp_path / "direct"
        ).decode("utf-8")


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


    @pytest.mark.parametrize(
        "event, named",
        [
            ([1, 2], "journal line 1 is not an event object: list"),
            ({"event": "submit", "job_id": 5, "spec": {}, "at": 1.0},
             "journal line 1: job_id must be a string, got 5"),
            ({"event": "submit", "job_id": "x", "spec": {}, "at": "soon"},
             "journal line 1: at must be a finite number, got 'soon'"),
        ],
        ids=["not-an-object", "job-id", "at"],
    )
    def test_serve_refuses_a_malformed_journal_event(self, tmp_path, capsys, event, named):
        from repro.cli import EXIT_ERROR, main as cli_main

        queue_dir = tmp_path / "queue"
        queue_dir.mkdir()
        (queue_dir / "jobs.jsonl").write_text(json.dumps(event) + "\n")
        argv = ["serve", "--store", str(tmp_path / "store"), "--queue", str(queue_dir),
                "--port", "0"]
        assert cli_main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}")
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
            ("solver", "random_starts"),
            ("solver", "seed"),
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

    @pytest.mark.parametrize(
        "key, entries",
        [("protocols", [1e-300]), ("protocols", ["xmac", True]), ("scenarios", [["bursty"]])],
    )
    def test_submit_non_string_name_entry_is_400_naming_it(self, client, key, entries):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({**SOLVE, "kind": "suite", key: entries})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error_kind"] == "ConfigurationError"
        index = len(entries) - 1
        assert f"{key}[{index}] must be a string" in excinfo.value.payload["error"]

    def test_submit_non_finite_number_is_400_naming_it(self, client):
        # json.dumps writes NaN, and Python's json reads it back as a float.
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "validate", "simulation": {"horizon": float("nan")}})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error_kind"] == "ConfigurationError"
        assert "simulation.horizon must be finite" in excinfo.value.payload["error"]

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                {"kind": "validate", "protocols": ["xmac"], "simulation": {"seed": -1}},
                "simulation.seed must be >= 0, got -1",
            ),
            ({"kind": "campaign", "campaign": {"replications": 0}}, "campaign.replications"),
            ({"kind": "campaign", "campaign": {"horizon": 0.0}}, "campaign.horizon"),
            ({"kind": "campaign", "campaign": {"confidence": 1.0}}, "campaign.confidence"),
            (
                {"kind": "campaign", "campaign": {"energy_tolerance": 0.0}},
                "campaign.energy_tolerance",
            ),
            (
                {"kind": "campaign", "campaign": {"min_delivery_ratio": 1.5}},
                "campaign.min_delivery_ratio",
            ),
            (
                {"kind": "campaign", "scenarios": ["paper-default", "paper-default"]},
                "duplicate scenarios",
            ),
            ({"kind": "campaign", "scenarios": ["no-such-preset"]}, "unknown scenario"),
        ],
    )
    def test_submit_refused_simulation_setting_is_400_naming_it(self, client, spec, message):
        jobs = len(client.queue()["jobs"])
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error_kind"] == "ConfigurationError"
        assert message in excinfo.value.payload["error"]
        assert len(client.queue()["jobs"]) == jobs

    def test_submit_unsimulable_campaign_is_400(self, client, analytical_only_protocol):
        from repro.network.topology import RingTopology
        from repro.scenario import Scenario
        from repro.scenarios.presets import (
            ScenarioPreset,
            register_scenario_preset,
            unregister_scenario_preset,
        )

        oversized = ScenarioPreset(
            name="oversized-ring",
            title="More nodes than a deployment may hold",
            description="Depth 300, density 300: 27M nodes.",
            scenario=Scenario(
                topology=RingTopology(depth=300, density=300), sampling_rate=1.0 / 600.0
            ),
            energy_budget=0.06,
            max_delay=6.0,
        )
        register_scenario_preset(oversized)
        try:
            for spec, message in (
                (
                    {"kind": "campaign", "scenarios": ["oversized-ring"]},
                    "scenario 'oversized-ring' is too large to simulate",
                ),
                (
                    {"kind": "campaign", "protocols": [analytical_only_protocol]},
                    "no simulated behaviour",
                ),
            ):
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(spec)
                assert excinfo.value.status == 400
                assert message in excinfo.value.payload["error"]
        finally:
            unregister_scenario_preset("oversized-ring")

    @pytest.mark.parametrize("kind, section", [("validate", "simulation"), ("campaign", "campaign")])
    def test_submit_horizon_past_event_budget_is_400_naming_it(self, client, kind, section):
        # Planned at submit: refused before a worker could build 1e20 s of
        # packet generations in memory.
        spec = {"kind": kind, "protocols": ["xmac"], section: {"horizon": 1e20}}
        jobs = len(client.queue()["jobs"])
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error_kind"] == "ConfigurationError"
        assert f"{section}.horizon 1e+20 is too long" in excinfo.value.payload["error"]
        assert len(client.queue()["jobs"]) == jobs
        assert client.healthz()["status"] == "ok"

    def test_submit_oversized_simulated_scenario_is_400_naming_it(self, client):
        # Planned at submit: refused before a worker could build a
        # 27M-node deployment.
        spec = {
            "kind": "validate",
            "scenario": {"depth": 300, "density": 300, "sampling_period": 600},
            "protocols": ["xmac"],
            "simulation": {"horizon": 600},
        }
        jobs = len(client.queue()["jobs"])
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error_kind"] == "ConfigurationError"
        assert (
            "scenario 'custom' is too large to simulate: 27000000 sensor nodes"
            in excinfo.value.payload["error"]
        )
        assert len(client.queue()["jobs"]) == jobs
        assert client.healthz()["status"] == "ok"

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
