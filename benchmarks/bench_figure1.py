"""Figure 1 benchmark: E-L trade-off with Ebudget fixed at 0.06 J, Lmax swept.

One benchmark per sub-figure (1a X-MAC, 1b DMAC, 1c LMAC), each a
``figure1`` spec run through ``repro.api``.  Each prints the series the
paper plots (corner points and Nash bargaining point per ``Lmax``) and
asserts the paper's qualitative observations:

* relaxing the delay bound moves the agreement in favour of the energy
  player (``E*`` is non-increasing in ``Lmax``),
* every agreed point satisfies the requirements and lies between the two
  players' optima,
* the agreement is proportionally fair.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import (
    assert_speedup_if_required,
    print_series,
    solutions_by_protocol,
)
from repro.api import ExperimentSpec, ResultSet, run
from repro.experiments.config import FIGURE_DELAY_BOUNDS, FIGURE_ENERGY_BUDGET_FIXED
from repro.runtime import build_runner
from repro.store import ResultStore


def _spec(grid: int, *protocols: str) -> ExperimentSpec:
    """Figure 1 at the paper's defaults (every paper protocol unless named)."""
    spec = ExperimentSpec.experiment("figure1").with_solver(grid_points=grid)
    return spec.with_protocols(*protocols) if protocols else spec


def _uncached(spec: ExperimentSpec) -> ResultSet:
    # No cache: these benches time the actual solves; the cache-hit path
    # has its own bench below.
    return run(spec, runner=build_runner(workers=1, use_cache=False))


def _check_and_print(result: ResultSet, label: str) -> None:
    assert not result.failed_records, f"{label}: some Lmax values were infeasible"
    solutions = [record.value for record in result]
    assert len(solutions) == len(FIGURE_DELAY_BOUNDS)
    stars = [solution.energy_star for solution in solutions]
    assert all(
        later <= earlier + 1e-9 for earlier, later in zip(stars, stars[1:])
    ), f"{label}: relaxing Lmax must not increase the agreed energy"
    for bound, solution in zip(FIGURE_DELAY_BOUNDS, solutions):
        assert solution.delay_star <= bound * 1.001
        assert solution.energy_star <= FIGURE_ENERGY_BUDGET_FIXED * 1.001
        assert solution.energy_best <= solution.energy_star <= solution.energy_worst * 1.001
        assert abs(solution.bargaining.fairness_residual) < 0.1
    print_series(label, result.rows())


@pytest.mark.parametrize(
    "protocol, subfigure",
    [("xmac", "Figure 1a (X-MAC)"), ("dmac", "Figure 1b (DMAC)"), ("lmac", "Figure 1c (LMAC)")],
)
def test_figure1(benchmark, figure_grid, protocol, subfigure):
    result = benchmark.pedantic(
        _uncached, args=(_spec(figure_grid, protocol),), rounds=1, iterations=1
    )
    _check_and_print(result, subfigure)


def test_figure1_saturation_structure(benchmark, figure_grid):
    """The paper's saturation pattern: X-MAC's trade-off points coincide for
    large ``Lmax`` (its energy optimum becomes interior), DMAC saturates only
    near the synchronization bound, LMAC keeps improving up to 6 s."""
    result = benchmark.pedantic(
        _uncached, args=(_spec(figure_grid),), rounds=1, iterations=1
    )
    solutions = solutions_by_protocol(result)
    xmac = [s.energy_star for s in solutions["xmac"]]
    lmac = [s.energy_star for s in solutions["lmac"]]
    # X-MAC: identical agreements once the delay bound stops binding (>= 3 s).
    assert xmac[2] == pytest.approx(xmac[5], rel=1e-3)
    # X-MAC: the bound still bites at 1 s and 2 s.
    assert xmac[0] > xmac[2] * 1.05
    # LMAC: every relaxation of the bound keeps improving the energy player.
    assert all(later < earlier for earlier, later in zip(lmac, lmac[1:]))


def test_figure1_parallel_speedup(benchmark, figure_grid, bench_workers):
    """Serial vs process-pool wall clock for the full Figure-1 grid.

    The parallel run is the benchmarked subject; the serial run is timed
    alongside to report the speedup.  Output equality is asserted exactly —
    parallelism must be invisible in the results.
    """
    spec = _spec(figure_grid)

    started = time.perf_counter()
    serial = run(spec, runner=build_runner(workers=1, use_cache=False))
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = benchmark.pedantic(
        run,
        args=(spec,),
        kwargs={"runner": build_runner(workers=bench_workers, use_cache=False)},
        rounds=1,
        iterations=1,
    )
    parallel_seconds = time.perf_counter() - started

    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    print_series(
        "Figure 1: serial vs parallel runtime",
        [
            {"mode": "serial[1]", "seconds": serial_seconds, "speedup": 1.0},
            {
                "mode": f"process[{bench_workers}]",
                "seconds": parallel_seconds,
                "speedup": speedup,
            },
        ],
    )
    assert serial.rows() == parallel.rows(), "parallel output must be bit-identical"
    assert_speedup_if_required(speedup)


def test_figure1_cache_hit_path(benchmark, figure_grid, tmp_path):
    """A warm result store answers the whole figure grid in near-zero time."""
    spec = _spec(figure_grid)

    started = time.perf_counter()
    cold = run(spec, runner=build_runner(store=ResultStore(tmp_path / "store")))
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    warm = benchmark.pedantic(
        run,
        args=(spec,),
        kwargs={"runner": build_runner(store=ResultStore(tmp_path / "store"))},
        rounds=1,
        iterations=1,
    )
    warm_seconds = time.perf_counter() - started

    print_series(
        "Figure 1: cold vs warm result store",
        [
            {"cache": "cold", "seconds": cold_seconds},
            {"cache": "warm", "seconds": warm_seconds},
        ],
    )
    # Every distinct unit is one store hit of the warm run.
    assert warm.telemetry["store_misses"] == warm.telemetry["store_puts"] == 0
    assert warm.telemetry["cache_hits"] == cold.telemetry["cache_misses"]
    assert warm.rows() == cold.rows()
    assert warm_seconds < cold_seconds / 10.0, "cache-hit path should be >10x faster"
