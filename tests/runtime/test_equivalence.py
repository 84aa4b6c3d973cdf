"""Parallel/serial equivalence: the runtime's core guarantee.

A ``sweep`` spec run through the batch runner must produce bit-identical
rows whether it runs serially or on a process pool — and whether the
solutions come from fresh solves or from a result store.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, ResultSet, run
from repro.protocols.registry import available_protocols
from repro.runtime import BatchRunner, build_runner
from repro.store import ResultStore

#: Small inline scenario (matches the ``small_scenario`` fixture).
SMALL = {"depth": 4, "density": 6, "sampling_period": 600.0, "radio": "cc2420"}
DELAYS = [2.0, 4.0, 6.0]
BUDGETS = [0.02, 0.06]


def _sweep(protocol: str, parameter: str, values) -> ExperimentSpec:
    return (
        ExperimentSpec.experiment("sweep")
        .with_scenario(SMALL)
        .with_protocols(protocol)
        .with_sweep(parameter, values)
        .with_requirements(energy_budget=0.06, max_delay=6.0)
        .with_solver(grid_points=15)
    )


def _serial() -> BatchRunner:
    return build_runner(workers=1, use_cache=False)


def _parallel(workers: int = 4) -> BatchRunner:
    return build_runner(workers=workers, use_cache=False)


def _solutions(result: ResultSet):
    return [record.value.as_dict() for record in result.ok_records]


@pytest.mark.parametrize("protocol", available_protocols())
class TestParallelSerialEquivalence:
    def test_delay_sweep_rows_identical(self, protocol):
        spec = _sweep(protocol, "max_delay", DELAYS)
        serial = run(spec, runner=_serial())
        parallel = run(spec, runner=_parallel())
        # Bit-identical: == on floats, no tolerance.
        assert serial.rows() == parallel.rows()
        assert [r.ok for r in serial] == [r.ok for r in parallel]
        assert _solutions(serial) == _solutions(parallel)

    def test_energy_sweep_rows_identical(self, protocol):
        spec = _sweep(protocol, "energy_budget", BUDGETS)
        serial = run(spec, runner=_serial())
        parallel = run(spec, runner=_parallel())
        assert serial.rows() == parallel.rows()
        assert _solutions(serial) == _solutions(parallel)


class TestInfeasibleEquivalence:
    def test_partially_infeasible_sweep_identical(self):
        spec = _sweep("xmac", "max_delay", [1e-4, 3.0, 1e-5, 5.0])
        serial = run(spec, runner=_serial())
        parallel = run(spec, runner=_parallel(2))
        assert serial.rows() == parallel.rows()
        assert [r.ok for r in serial] == [False, True, False, True]
        assert [r.ok for r in parallel] == [False, True, False, True]
        assert [r.row["max_delay"] for r in serial.failed_records] == [1e-4, 1e-5]


class TestCacheDeterminism:
    def test_cache_hit_rows_identical_to_fresh_solve(self, tmp_path):
        spec = _sweep("xmac", "max_delay", DELAYS)
        runner = build_runner(store=ResultStore(tmp_path / "store"))
        fresh = run(spec, runner=runner)
        assert (fresh.telemetry["cache_hits"], fresh.telemetry["cache_misses"]) == (
            0,
            len(DELAYS),
        )
        cached = run(spec, runner=runner)
        # Each run reports its own counters: the second one only read.
        assert (cached.telemetry["cache_hits"], cached.telemetry["cache_misses"]) == (
            len(DELAYS),
            0,
        )
        assert cached.rows() == fresh.rows()
        assert _solutions(cached) == _solutions(fresh)

    def test_cache_warmed_by_parallel_run_serves_serial_run(self, tmp_path):
        spec = _sweep("xmac", "max_delay", DELAYS)
        warm = run(spec, runner=build_runner(workers=2, store=ResultStore(tmp_path / "store")))
        served = run(spec, runner=build_runner(store=ResultStore(tmp_path / "store")))
        assert served.telemetry["cache_hits"] == len(DELAYS)
        assert served.telemetry["cache_misses"] == 0
        assert served.rows() == warm.rows()

    def test_each_run_reports_its_own_counters(self, tmp_path):
        # Without a store nothing outlives a run: repeating a spec solves it
        # again, and a third run of a new game counts only that game.
        first, again = _sweep("xmac", "max_delay", [2.0]), _sweep("xmac", "max_delay", [2.0])
        other = _sweep("xmac", "max_delay", [4.0])
        counts = [
            (result.telemetry["cache_hits"], result.telemetry["cache_misses"])
            for result in (run(first), run(again), run(other))
        ]
        assert counts == [(0, 1), (0, 1), (0, 1)]
        # One runner over a store, passed to three runs: each run's own.
        runner = BatchRunner(cache=True, store=ResultStore(tmp_path / "store"))
        results = [run(spec, runner=runner) for spec in (first, again, other)]
        traffic = [
            tuple(result.telemetry[key] for key in ("store_hits", "store_misses", "store_puts"))
            for result in results
        ]
        assert traffic == [(0, 1, 1), (1, 0, 0), (0, 1, 1)]
