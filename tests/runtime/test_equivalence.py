"""Parallel/serial equivalence: the runtime's core guarantee.

A ``sweep`` spec run through the batch runner must produce bit-identical
rows whether it runs serially or on a process pool — and whether the
solutions come from fresh solves or from the cache.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, ResultSet, run
from repro.protocols.registry import available_protocols
from repro.runtime import BatchRunner, ProcessExecutor, SolveCache, build_runner

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
        .with_solver(grid_points=15, random_starts=1)
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
    def test_cache_hit_rows_identical_to_fresh_solve(self):
        spec = _sweep("xmac", "max_delay", DELAYS)
        cache = SolveCache()
        runner = BatchRunner(cache=cache)
        fresh = run(spec, runner=runner)
        assert (fresh.telemetry["cache_hits"], fresh.telemetry["cache_misses"]) == (
            0,
            len(DELAYS),
        )
        cached = run(spec, runner=runner)
        # The counters are the shared cache's, so they accumulate: the
        # second run adds one hit per value and no miss.
        assert (cached.telemetry["cache_hits"], cached.telemetry["cache_misses"]) == (
            len(DELAYS),
            len(DELAYS),
        )
        assert cached.rows() == fresh.rows()
        assert _solutions(cached) == _solutions(fresh)

    def test_cache_warmed_by_parallel_run_serves_serial_run(self):
        spec = _sweep("xmac", "max_delay", DELAYS)
        cache = SolveCache()
        warm = run(spec, runner=BatchRunner(executor=ProcessExecutor(workers=2), cache=cache))
        served = run(spec, runner=BatchRunner(cache=cache))
        assert served.telemetry["cache_hits"] == len(DELAYS)
        assert served.telemetry["cache_misses"] == len(DELAYS)
        assert served.rows() == warm.rows()
