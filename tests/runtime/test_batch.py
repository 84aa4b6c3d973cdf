"""Tests for the batch runner: error policy, in-batch dedup, caching."""

from __future__ import annotations

import pytest

from repro.core.requirements import ApplicationRequirements
from repro.exceptions import ConfigurationError
from repro.runtime import (
    BatchRunner,
    CacheStats,
    ProcessExecutor,
    SolveCache,
    SolveTask,
    build_runner,
    default_cache,
)

FAST = {"grid_points_per_dimension": 15, "random_starts": 1}


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
        outcomes = BatchRunner(cache=None).run(_tasks(xmac, [3.0, 2.0, 4.0]))
        assert [outcome.tag for outcome in outcomes] == [3.0, 2.0, 4.0]
        assert all(outcome.ok for outcome in outcomes)
        assert all(outcome.solve_seconds > 0 for outcome in outcomes)

    def test_infeasible_value_does_not_poison_its_chunk(self, xmac):
        # Five tasks on one worker dispatch in chunks of two, so the
        # infeasible first value shares its chunk with 3.0, which must still
        # be solved.
        outcomes = BatchRunner(cache=None).run(_tasks(xmac, [1e-4, 3.0, 4.0, 5.0, 6.0]))
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
            BatchRunner(cache=None).run(_tasks(xmac, [3.0], {"no_such_option": 1}))

    def test_unbuildable_model_is_data_and_not_dispatched(self, xmac):
        unbuildable = SolveTask(
            model=None,
            requirements=_tasks(xmac, [3.0])[0].requirements,
            tag="broken",
            build_error="model construction failed: empty box",
        )
        outcomes = BatchRunner(cache=SolveCache()).run([unbuildable, *_tasks(xmac, [3.0])])
        assert not outcomes[0].ok and not outcomes[0].infeasible
        assert outcomes[0].error_message == "model construction failed: empty box"
        assert outcomes[0].solve_seconds == 0.0
        assert outcomes[1].ok

    def test_build_captures_construction_failures(self, small_scenario):
        requirements = ApplicationRequirements(energy_budget=0.06, max_delay=6.0)
        task = SolveTask.build("no-such-protocol", small_scenario, requirements, FAST, tag=1)
        assert task.model is None
        assert task.build_error.startswith("model construction failed:")
        built = SolveTask.build("xmac", small_scenario, requirements, FAST, tag=2)
        assert built.model is not None and built.tag == 2


class TestCaching:
    def test_second_run_is_all_hits(self, xmac):
        cache = SolveCache()
        runner = BatchRunner(cache=cache)
        tasks = _tasks(xmac, [2.0, 3.0])
        first = runner.run(tasks)
        second = runner.run(tasks)
        assert all(outcome.solve_seconds > 0 for outcome in first)
        assert all(outcome.solve_seconds == 0 for outcome in second)
        assert [a.solution.as_dict() for a in first] == [b.solution.as_dict() for b in second]
        stats = runner.cache_stats()
        assert (stats.hits, stats.misses) == (2, 2)

    def test_failed_solves_are_not_cached(self, xmac):
        cache = SolveCache()
        runner = BatchRunner(cache=cache)
        tasks = _tasks(xmac, [1e-4])
        assert not runner.run(tasks)[0].ok
        assert len(cache) == 0

    def test_cache_disabled(self, xmac):
        runner = BatchRunner(cache=None)
        tasks = _tasks(xmac, [3.0])
        runner.run(tasks)
        second = runner.run(tasks)[0]
        assert second.solve_seconds > 0
        assert runner.cache_stats() == CacheStats()

    def test_in_batch_duplicates_solved_once(self, xmac):
        cache = SolveCache()
        runner = BatchRunner(cache=cache)
        tasks = _tasks(xmac, [3.0, 2.0, 3.0])
        outcomes = runner.run(tasks)
        assert [outcome.ok for outcome in outcomes] == [True, True, True]
        # The duplicate rides on the first occurrence's solve: one solve per
        # unique key, no cache lookup wasted on the duplicate.
        assert outcomes[2].solution is outcomes[0].solution
        assert outcomes[2].solve_seconds == 0 and outcomes[0].solve_seconds > 0
        assert runner.cache_stats().misses == 2

    def test_in_batch_duplicate_of_infeasible_task_shares_the_error(self, xmac):
        runner = BatchRunner(cache=SolveCache())
        outcomes = runner.run(_tasks(xmac, [1e-4, 1e-4]))
        assert all(outcome.infeasible for outcome in outcomes)
        assert outcomes[1].error is outcomes[0].error

    def test_parallel_runner_shares_cache_with_serial(self, xmac):
        cache = SolveCache()
        tasks = _tasks(xmac, [2.0, 3.0, 4.0])
        BatchRunner(cache=cache).run(tasks)
        parallel = BatchRunner(executor=ProcessExecutor(workers=2), cache=cache)
        outcomes = parallel.run(tasks)
        assert all(outcome.solve_seconds == 0 for outcome in outcomes)
        assert parallel.cache_stats().hits == 3


class TestBuildRunner:
    def test_default_is_serial_and_cached(self):
        runner = build_runner()
        assert runner.executor.name == "serial"
        assert runner.cache is default_cache()

    def test_workers_select_process_pool(self):
        runner = build_runner(workers=3, use_cache=False)
        assert runner.executor.name == "process"
        assert runner.executor.workers == 3
        assert runner.cache is None
        assert runner.describe() == "process[3]"

    def test_store_gets_a_fresh_cache_of_its_own(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        runner = build_runner(store=store)
        assert runner.cache is not default_cache()
        assert runner.cache.store is store
        assert runner.describe() == "serial[1]+cache+store"

    def test_no_cache_bypasses_the_store_too(self, tmp_path):
        from repro.store import ResultStore

        runner = build_runner(use_cache=False, store=ResultStore(tmp_path / "store"))
        assert runner.cache is None

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            build_runner(workers=-1)
