"""JobQueue: dedup by spec hash, state machine, journal replay."""

from __future__ import annotations

import json

import pytest

from repro.api import ExperimentSpec
from repro.service import JobError, JobQueue

SOLVE = {
    "kind": "solve",
    "scenario": {"depth": 4, "density": 6, "sampling_period": 600.0},
    "protocols": ["xmac"],
    "solver": {"grid_points": 20},
}


def spec_of(**overrides) -> ExperimentSpec:
    return ExperimentSpec.from_dict({**SOLVE, **overrides})


RESULT_TEXT = json.dumps({"schema": "repro.api.resultset", "rows": []}) + "\n"


class TestSubmit:
    def test_job_id_is_the_spec_hash(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, created = queue.submit(spec_of())
        assert created
        assert job.job_id == spec_of().spec_hash()
        assert job.state == "queued"

    def test_resubmit_is_idempotent(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, created_first = queue.submit(spec_of())
        second, created_second = queue.submit(spec_of())
        assert created_first and not created_second
        assert first is second
        assert queue.counts()["queued"] == 1

    def test_runtime_policy_does_not_fork_jobs(self, tmp_path):
        # The hash excludes runtime, so workers/cache variants share a job.
        queue = JobQueue(tmp_path)
        _, created_first = queue.submit(spec_of(runtime={"workers": 1}))
        _, created_second = queue.submit(spec_of(runtime={"workers": 4}))
        assert created_first and not created_second

    def test_different_specs_are_different_jobs(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(spec_of())
        second, created = queue.submit(spec_of(protocols=["lmac"]))
        assert created
        assert first.job_id != second.job_id

    def test_resubmit_requeues_failed_job(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.claim(timeout=0)
        queue.fail(job.job_id, "boom", "RuntimeError")
        resubmitted, created = queue.submit(spec_of())
        assert not created
        assert resubmitted.state == "queued"
        assert resubmitted.error == ""
        assert resubmitted.attempts == 1  # history survives the requeue


class TestStateMachine:
    def test_claim_is_fifo(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(spec_of())
        second, _ = queue.submit(spec_of(protocols=["lmac"]))
        assert queue.claim(timeout=0).job_id == first.job_id
        assert queue.claim(timeout=0).job_id == second.job_id
        assert queue.claim(timeout=0) is None

    def test_finish_publishes_result(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.claim(timeout=0)
        done = queue.finish(job.job_id, RESULT_TEXT, {"units": 1})
        assert done.state == "done"
        assert done.progress == {"units": 1}
        assert queue.result_text(job.job_id) == RESULT_TEXT

    def test_finish_requires_running(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        with pytest.raises(JobError, match="cannot finish"):
            queue.finish(job.job_id, RESULT_TEXT)

    def test_cancel_queued(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        assert queue.cancel(job.job_id).state == "cancelled"
        assert queue.claim(timeout=0) is None

    def test_cancel_running_is_rejected(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.claim(timeout=0)
        with pytest.raises(JobError, match="only queued jobs"):
            queue.cancel(job.job_id)

    def test_cancel_unknown_is_rejected(self, tmp_path):
        with pytest.raises(JobError, match="unknown job"):
            JobQueue(tmp_path).cancel("deadbeef")

    def test_result_text_of_unfinished_job_is_none(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        assert queue.result_text(job.job_id) is None


class TestReplay:
    def test_done_jobs_survive_restart(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.claim(timeout=0)
        queue.finish(job.job_id, RESULT_TEXT, {"units": 1})
        queue.close()

        reopened = JobQueue(tmp_path)
        replayed = reopened.get(job.job_id)
        assert replayed.state == "done"
        assert replayed.progress == {"units": 1}
        assert reopened.result_text(job.job_id) == RESULT_TEXT
        assert reopened.requeued == 0

    def test_running_job_is_requeued_after_crash(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.claim(timeout=0)
        queue.close()  # crash with the job mid-flight

        reopened = JobQueue(tmp_path)
        assert reopened.requeued == 1
        assert reopened.get(job.job_id).state == "queued"
        assert reopened.claim(timeout=0).job_id == job.job_id

    def test_queued_jobs_keep_fifo_order_after_restart(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(spec_of())
        second, _ = queue.submit(spec_of(protocols=["lmac"]))
        queue.close()

        reopened = JobQueue(tmp_path)
        assert reopened.claim(timeout=0).job_id == first.job_id
        assert reopened.claim(timeout=0).job_id == second.job_id

    def test_failed_and_cancelled_are_sticky(self, tmp_path):
        queue = JobQueue(tmp_path)
        failed, _ = queue.submit(spec_of())
        queue.claim(timeout=0)
        queue.fail(failed.job_id, "boom", "RuntimeError")
        cancelled, _ = queue.submit(spec_of(protocols=["lmac"]))
        queue.cancel(cancelled.job_id)
        queue.close()

        reopened = JobQueue(tmp_path)
        assert reopened.get(failed.job_id).state == "failed"
        assert reopened.get(failed.job_id).error == "boom"
        assert reopened.get(cancelled.job_id).state == "cancelled"
        assert reopened.claim(timeout=0) is None

    def test_torn_final_line_is_tolerated(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.close()
        journal = tmp_path / "jobs.jsonl"
        journal.write_text(journal.read_text() + '{"event": "state", "job_')

        reopened = JobQueue(tmp_path)
        assert reopened.get(job.job_id).state == "queued"

    def test_corrupt_middle_line_raises(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(spec_of())
        queue.close()
        journal = tmp_path / "jobs.jsonl"
        journal.write_text("garbage\n" + journal.read_text())
        with pytest.raises(JobError, match="corrupt journal line 1"):
            JobQueue(tmp_path)

    def test_done_without_result_file_is_requeued(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec_of())
        queue.claim(timeout=0)
        queue.finish(job.job_id, RESULT_TEXT)
        queue.close()
        (tmp_path / "results" / f"{job.job_id}.json").unlink()

        reopened = JobQueue(tmp_path)
        assert reopened.requeued == 1
        assert reopened.get(job.job_id).state == "queued"

    @pytest.mark.parametrize(
        "removed, named",
        [
            # Before the solver-method and simulation-engine knobs went.
            (
                {"solver": {"method": "exhaustive"}, "runtime": {"sim_engine": "scalar"}},
                r"unknown solver key\(s\): method",
            ),
            # Before the executor-mode and chunk-size knobs went.
            (
                {"runtime": {"mode": "auto", "chunk_size": None}},
                r"unknown runtime key\(s\): chunk_size, mode",
            ),
        ],
        ids=["solver-method", "runtime-mode"],
    )
    def test_journal_naming_a_removed_key_is_a_named_error(self, tmp_path, removed, named):
        # Replay refuses such a journal by name, never silently.
        queue = JobQueue(tmp_path)
        queue.submit(spec_of())
        queue.close()
        journal = tmp_path / "jobs.jsonl"
        event = json.loads(journal.read_text().splitlines()[0])
        for section, keys in removed.items():
            event["spec"][section].update(keys)
        journal.write_text(json.dumps(event) + "\n")
        with pytest.raises(JobError, match="line 1: " + named):
            JobQueue(tmp_path)
