"""Figure 2 benchmark: E-L trade-off with Lmax fixed at 6 s, Ebudget swept.

One benchmark per sub-figure (2a X-MAC, 2b DMAC, 2c LMAC), each a
``figure2`` spec run through ``repro.api``.  Each prints the series the
paper plots and asserts the paper's qualitative observation that raising
the energy budget moves the agreement in favour of the delay player
(``L*`` is non-increasing in ``Ebudget``).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_series, solutions_by_protocol
from repro.api import ExperimentSpec, ResultSet, run
from repro.experiments.config import FIGURE_ENERGY_BUDGETS, FIGURE_MAX_DELAY_FIXED
from repro.runtime import build_runner


def _spec(grid: int, *protocols: str) -> ExperimentSpec:
    """Figure 2 at the paper's defaults (every paper protocol unless named)."""
    spec = ExperimentSpec.experiment("figure2").with_solver(grid_points=grid)
    return spec.with_protocols(*protocols) if protocols else spec


def _uncached(spec: ExperimentSpec) -> ResultSet:
    # No cache: these benches time the actual solves.
    return run(spec, runner=build_runner(workers=1, use_cache=False))


def _check_and_print(result: ResultSet, label: str) -> None:
    assert not result.failed_records, f"{label}: some Ebudget values were infeasible"
    solutions = [record.value for record in result]
    assert len(solutions) == len(FIGURE_ENERGY_BUDGETS)
    stars = [solution.delay_star for solution in solutions]
    assert all(
        later <= earlier + 1e-9 for earlier, later in zip(stars, stars[1:])
    ), f"{label}: raising Ebudget must not increase the agreed delay"
    for budget, solution in zip(FIGURE_ENERGY_BUDGETS, solutions):
        assert solution.energy_star <= budget * 1.001
        assert solution.delay_star <= FIGURE_MAX_DELAY_FIXED * 1.001
        assert solution.delay_best <= solution.delay_star <= solution.delay_worst * 1.001
        assert abs(solution.bargaining.fairness_residual) < 0.1
    print_series(label, result.rows())


@pytest.mark.parametrize(
    "protocol, subfigure",
    [("xmac", "Figure 2a (X-MAC)"), ("dmac", "Figure 2b (DMAC)"), ("lmac", "Figure 2c (LMAC)")],
)
def test_figure2(benchmark, figure_grid, protocol, subfigure):
    result = benchmark.pedantic(
        _uncached, args=(_spec(figure_grid, protocol),), rounds=1, iterations=1
    )
    _check_and_print(result, subfigure)


def test_figure2_protocol_energy_ordering(benchmark, figure_grid):
    """At the largest budget, X-MAC's delay-optimal corner is the cheapest of
    the three protocols (the x-axis ranges of the paper's sub-figures)."""
    result = benchmark.pedantic(
        _uncached, args=(_spec(figure_grid),), rounds=1, iterations=1
    )
    solutions = solutions_by_protocol(result)
    worst_energy = {
        name: solutions[name][-1].energy_worst for name in ("xmac", "dmac", "lmac")
    }
    assert worst_energy["xmac"] < worst_energy["dmac"]
    assert worst_energy["xmac"] < worst_energy["lmac"]
