"""Scalar vs. vectorized grid evaluation.

The grid stage of the hybrid solver evaluates the protocol cost surfaces
``E(X)`` / ``L(X)`` and the constraint margins over the full parameter grid.
Since the batched evaluation layer (``energy_many`` / ``latency_many`` /
``capacity_margin_many``) landed, that happens in a handful of NumPy calls
instead of one Python call per point.

These benches time ``grid_search`` (which takes the batched path, since the
problem's objective and constraints carry ``.many`` twins) against the
point-by-point reference ``grid_search_scalar`` on the paper's Figure-1
problem (P1 with ``Ebudget = 0.06``, ``Lmax = 6``) at the figure's grid
resolution, assert the results are **bit-identical** (same point, value,
feasibility, violation and evaluation count), and enforce the ≥5× speedup
floor the vectorization exists for.  In practice the speedup is one to three
orders of magnitude (largest for LMAC, whose 2-D grid has ``60² = 3600``
points).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import print_series
from repro.core.problems import EnergyMinimizationProblem, NashBargainingProblem
from repro.core.requirements import ApplicationRequirements
from repro.experiments.config import (
    FIGURE_ENERGY_BUDGET_FIXED,
    FIGURE_GRID_POINTS,
    figure_scenario,
)
from repro.optimization.grid import grid_search, grid_search_scalar
from repro.protocols.registry import PAPER_PROTOCOL_NAMES, create_protocol

#: The hard floor of the vectorization acceptance criterion.
VECTORIZED_SPEEDUP_FLOOR = 5.0

#: Figure-1 requirements at the loosest delay bound.
_REQUIREMENTS_KWARGS = {"energy_budget": FIGURE_ENERGY_BUDGET_FIXED, "max_delay": 6.0}


def _figure1_problem(protocol: str) -> EnergyMinimizationProblem:
    scenario = figure_scenario()
    model = create_protocol(protocol, scenario)
    requirements = ApplicationRequirements(
        sampling_rate=scenario.sampling_rate, **_REQUIREMENTS_KWARGS
    )
    return EnergyMinimizationProblem(model, requirements)


def _time_both_paths(problem, grid_points: int):
    """Run the same grid search scalar and vectorized; return results + times."""
    objective = problem._energy_objective()  # noqa: SLF001 - bench probes the solver wiring
    constraints = problem.constraints()
    kwargs = {"points_per_dimension": grid_points}

    started = time.perf_counter()
    scalar = grid_search_scalar(objective, problem.space, constraints, **kwargs)
    scalar_seconds = time.perf_counter() - started

    started = time.perf_counter()
    vectorized = grid_search(objective, problem.space, constraints, **kwargs)
    vectorized_seconds = time.perf_counter() - started
    return scalar, vectorized, scalar_seconds, vectorized_seconds


def _assert_bit_identical(scalar, vectorized) -> None:
    assert np.array_equal(scalar.x, vectorized.x), "grid optimum moved"
    assert scalar.value == vectorized.value, "objective value differs"
    assert scalar.feasible == vectorized.feasible
    assert scalar.evaluations == vectorized.evaluations
    assert scalar.constraint_violation == vectorized.constraint_violation


def test_vectorized_grid_figure1(benchmark, figure_grid):
    """Figure-1 (P1) grids, all three paper protocols: both paths, one floor.

    The benchmarked subject is the vectorized evaluation of all three
    protocol grids; the scalar path is timed alongside.  The speedup floor
    is asserted on the aggregate wall clock, which is dominated by LMAC's
    two-dimensional grid — exactly the case the vectorization targets.
    """
    problems = {name: _figure1_problem(name) for name in PAPER_PROTOCOL_NAMES}

    def run_vectorized():
        return {
            name: grid_search(
                problem._energy_objective(),  # noqa: SLF001
                problem.space,
                problem.constraints(),
                points_per_dimension=figure_grid,
            )
            for name, problem in problems.items()
        }

    rows = []
    scalar_total = 0.0
    vectorized_total = 0.0
    for name, problem in problems.items():
        scalar, vectorized, scalar_seconds, vectorized_seconds = _time_both_paths(
            problem, figure_grid
        )
        _assert_bit_identical(scalar, vectorized)
        scalar_total += scalar_seconds
        vectorized_total += vectorized_seconds
        rows.append(
            {
                "protocol": name,
                "grid_points": scalar.evaluations,
                "scalar_ms": scalar_seconds * 1e3,
                "vectorized_ms": vectorized_seconds * 1e3,
                "speedup": scalar_seconds / max(vectorized_seconds, 1e-12),
            }
        )
    benchmark.pedantic(run_vectorized, rounds=1, iterations=1)

    speedup = scalar_total / max(vectorized_total, 1e-12)
    rows.append(
        {
            "protocol": "TOTAL",
            "grid_points": sum(row["grid_points"] for row in rows),
            "scalar_ms": scalar_total * 1e3,
            "vectorized_ms": vectorized_total * 1e3,
            "speedup": speedup,
        }
    )
    print_series("Figure-1 grid: scalar vs vectorized evaluation", rows)
    assert speedup >= VECTORIZED_SPEEDUP_FLOOR, (
        f"vectorized grid evaluation is only {speedup:.1f}x faster than scalar "
        f"(floor: {VECTORIZED_SPEEDUP_FLOOR}x)"
    )


@pytest.mark.parametrize("protocol", PAPER_PROTOCOL_NAMES)
def test_vectorized_grid_per_protocol(benchmark, figure_grid, protocol):
    """Per-protocol bit-identity + timing record at the figure resolution."""
    problem = _figure1_problem(protocol)
    scalar, vectorized, scalar_seconds, vectorized_seconds = _time_both_paths(
        problem, figure_grid
    )
    _assert_bit_identical(scalar, vectorized)
    benchmark.pedantic(
        lambda: grid_search(
            problem._energy_objective(),  # noqa: SLF001
            problem.space,
            problem.constraints(),
            points_per_dimension=figure_grid,
        ),
        rounds=1,
        iterations=1,
    )
    print_series(
        f"{protocol}: scalar vs vectorized grid",
        [
            {
                "path": "scalar",
                "grid_points": scalar.evaluations,
                "seconds": scalar_seconds,
                "speedup": 1.0,
            },
            {
                "path": "vectorized",
                "grid_points": vectorized.evaluations,
                "seconds": vectorized_seconds,
                "speedup": scalar_seconds / max(vectorized_seconds, 1e-12),
            },
        ],
    )


def test_vectorized_nash_objective_bit_identity(figure_grid):
    """The (P4) log objective evaluates bit-identically point-wise vs batched.

    ``np.log`` is not guaranteed to round like ``math.log``, so the batched
    Nash objective computes the gains vectorized and applies ``math.log``
    per element; this bench-side check pins that contract at the figure
    resolution.
    """
    scenario = figure_scenario()
    for name in PAPER_PROTOCOL_NAMES:
        model = create_protocol(name, scenario)
        requirements = ApplicationRequirements(
            sampling_rate=scenario.sampling_rate, **_REQUIREMENTS_KWARGS
        )
        problem = NashBargainingProblem(
            model,
            requirements,
            disagreement_energy=FIGURE_ENERGY_BUDGET_FIXED,
            disagreement_delay=6.0,
        )
        grid = problem.space.grid(figure_grid)
        batched_values = problem.objective_many(grid)
        scalar_values = np.array([problem.objective(row) for row in grid])
        assert np.array_equal(batched_values, scalar_values), name
