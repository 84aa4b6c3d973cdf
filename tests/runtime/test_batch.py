"""Tests for the batch runner: error policy, in-batch dedup, the store."""

from __future__ import annotations

import pytest

from repro.core.requirements import ApplicationRequirements
from repro.exceptions import ConfigurationError
from repro.runtime import BatchRunner, ProcessExecutor, SolveTask, batch, build_runner
from repro.simulation import SimulationConfig
from repro.store import ResultStore
from repro.validation.campaign import simulate_replications

FAST = {"grid_points_per_dimension": 15}


def _tasks(model, delays, options=FAST):
    base = ApplicationRequirements(
        energy_budget=0.06, max_delay=6.0, sampling_rate=model.scenario.sampling_rate
    )
    return [
        SolveTask(
            model=model,
            requirements=base.with_max_delay(delay),
            solver_options=dict(options),
            tag=delay,
        )
        for delay in delays
    ]


class TestRun:
    def test_outcomes_in_submission_order(self, xmac):
        outcomes = BatchRunner().run(_tasks(xmac, [3.0, 2.0, 4.0]))
        assert [outcome.tag for outcome in outcomes] == [3.0, 2.0, 4.0]
        assert all(outcome.ok for outcome in outcomes)

    def test_infeasible_value_does_not_poison_its_chunk(self, xmac):
        # Five tasks on one worker dispatch in chunks of two, so the
        # infeasible first value shares its chunk with 3.0, which must still
        # be solved.
        outcomes = BatchRunner().run(_tasks(xmac, [1e-4, 3.0, 4.0, 5.0, 6.0]))
        assert [outcome.ok for outcome in outcomes] == [False, True, True, True, True]
        assert outcomes[0].infeasible
        assert outcomes[0].solution is None
        assert outcomes[0].error_message

    def test_empty_batch(self):
        assert BatchRunner().run([]) == []

    def test_non_infeasibility_errors_reraise(self, xmac):
        # Only infeasibility is data: a solver option the backend rejects is
        # a bug and must surface, not hide in an outcome.
        with pytest.raises(TypeError):
            BatchRunner().run(_tasks(xmac, [3.0], {"no_such_option": 1}))

    def test_unbuildable_model_is_data_and_not_dispatched(self, xmac):
        unbuildable = SolveTask(
            model=None,
            requirements=_tasks(xmac, [3.0])[0].requirements,
            tag="broken",
            build_error="model construction failed: empty box",
        )
        runner = BatchRunner(cache=True)
        outcomes = runner.run([unbuildable, *_tasks(xmac, [3.0])])
        assert not outcomes[0].ok and not outcomes[0].infeasible
        assert outcomes[0].error_message == "model construction failed: empty box"
        assert outcomes[1].ok
        assert runner.traffic() == (0, 1, 0)  # only the buildable task was looked up

    def test_build_captures_construction_failures(self, small_scenario):
        requirements = ApplicationRequirements(energy_budget=0.06, max_delay=6.0)
        task = SolveTask.build("no-such-protocol", small_scenario, requirements, FAST, tag=1)
        assert task.model is None
        assert task.build_error.startswith("model construction failed:")
        built = SolveTask.build("xmac", small_scenario, requirements, FAST, tag=2)
        assert built.model is not None and built.tag == 2


class TestCaching:
    def test_second_run_is_all_hits(self, tmp_path, xmac):
        runner = BatchRunner(cache=True, store=ResultStore(tmp_path / "store"))
        tasks = _tasks(xmac, [2.0, 3.0])
        first = runner.run(tasks)
        assert runner.traffic() == (0, 2, 2)
        second = runner.run(tasks)
        assert runner.traffic() == (2, 2, 2)  # the second run only read
        assert [a.solution.as_dict() for a in first] == [b.solution.as_dict() for b in second]

    def test_failed_solves_are_not_cached(self, tmp_path, xmac):
        store = ResultStore(tmp_path / "store")
        runner = BatchRunner(cache=True, store=store)
        tasks = _tasks(xmac, [1e-4])
        assert not runner.run(tasks)[0].ok
        assert runner.traffic() == (0, 1, 0)
        assert store.record_count() == 0

    def test_cache_disabled(self, tmp_path, xmac):
        store = ResultStore(tmp_path / "store")
        runner = BatchRunner(cache=False, store=store)
        assert runner.store is None
        tasks = _tasks(xmac, [3.0, 3.0])
        outcomes = runner.run(tasks)
        # No key, no dedup, no store: both tasks are solved.
        assert outcomes[0].solution is not outcomes[1].solution
        assert outcomes[0].solution == outcomes[1].solution
        assert runner.traffic() == (0, 0, 0)
        assert store.record_count() == 0

    def test_cache_off_computes_no_key(self, monkeypatch, xmac):
        def no_key(key):
            raise AssertionError("a batch with the cache off computed a key")

        monkeypatch.setattr(batch, "key_digest", no_key)
        assert BatchRunner().run(_tasks(xmac, [3.0]))[0].ok
        payload = (xmac, xmac.coerce({"wakeup_interval": 0.4}), SimulationConfig(200.0, 1))
        assert simulate_replications([payload], BatchRunner())[0].seed == 1

    def test_cache_without_store_computes_no_digest(self, monkeypatch, xmac):
        def no_digest(key):
            raise AssertionError("a batch without a store digested a key")

        monkeypatch.setattr(batch, "key_digest", no_digest)
        runner = BatchRunner(cache=True)
        outcomes = runner.run(_tasks(xmac, [3.0, 3.0]))
        assert outcomes[1].solution is outcomes[0].solution
        assert runner.traffic() == (0, 1, 0)

    def test_cache_refuses_replications_with_other_simulation_settings(self, xmac):
        # A replication key names only the horizon and the seed of its run.
        params = xmac.coerce({"wakeup_interval": 0.4})
        payload = (xmac, params, SimulationConfig(200.0, 1, queue_capacity=8))
        with pytest.raises(ConfigurationError, match="horizon and the seed"):
            simulate_replications([payload], BatchRunner(cache=True))
        assert simulate_replications([payload], BatchRunner())[0].seed == 1

    def test_in_batch_duplicates_solved_once(self, xmac):
        runner = BatchRunner(cache=True)
        tasks = _tasks(xmac, [3.0, 2.0, 3.0])
        outcomes = runner.run(tasks)
        assert [outcome.ok for outcome in outcomes] == [True, True, True]
        # The duplicate rides on the first occurrence's solve: one solve and
        # one lookup per unique key.
        assert outcomes[2].solution is outcomes[0].solution
        assert runner.traffic() == (0, 2, 0)

    def test_in_batch_duplicate_of_infeasible_task_shares_the_error(self, xmac):
        runner = BatchRunner(cache=True)
        outcomes = runner.run(_tasks(xmac, [1e-4, 1e-4]))
        assert all(outcome.infeasible for outcome in outcomes)
        assert outcomes[1].error is outcomes[0].error

    def test_in_batch_duplicate_of_a_stored_task_shares_the_hit(self, tmp_path, xmac):
        store = ResultStore(tmp_path / "store")
        cold = BatchRunner(cache=True, store=store).run(_tasks(xmac, [3.0]))
        warm = BatchRunner(cache=True, store=store)
        outcomes = warm.run(_tasks(xmac, [3.0, 3.0]))
        assert outcomes[0].solution == outcomes[1].solution == cold[0].solution
        assert warm.traffic() == (1, 0, 0)

    def test_parallel_runner_shares_cache_with_serial(self, tmp_path, xmac):
        store = ResultStore(tmp_path / "store")
        tasks = _tasks(xmac, [2.0, 3.0, 4.0])
        serial = BatchRunner(cache=True, store=store).run(tasks)
        parallel = BatchRunner(executor=ProcessExecutor(workers=2), cache=True, store=store)
        outcomes = parallel.run(tasks)
        assert parallel.traffic() == (3, 0, 0)
        assert [o.solution for o in outcomes] == [o.solution for o in serial]


class TestBuildRunner:
    def test_default_is_serial_and_cached(self):
        runner = build_runner()
        assert runner.executor.name == "serial"
        assert runner.cache and runner.store is None
        assert runner.describe() == "serial[1]+cache"

    def test_workers_select_process_pool(self):
        runner = build_runner(workers=3, use_cache=False)
        assert runner.executor.name == "process"
        assert runner.executor.workers == 3
        assert not runner.cache
        assert runner.describe() == "process[3]"

    def test_store_is_read_through_the_cache(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = build_runner(store=store)
        assert runner.store is store
        assert runner.traffic() == (0, 0, 0)
        assert runner.describe() == "serial[1]+cache+store"

    def test_no_cache_bypasses_the_store_too(self, tmp_path):
        runner = build_runner(use_cache=False, store=ResultStore(tmp_path / "store"))
        assert not runner.cache and runner.store is None

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            build_runner(workers=-1)
