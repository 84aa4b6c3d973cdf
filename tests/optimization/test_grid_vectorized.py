"""The vectorized grid search: equivalence with the point-by-point loop.

``grid_search`` evaluates a grid whole, one call of each batch function,
and must be interchangeable bit for bit with the point-by-point reference
``grid_search_scalar`` (``tests/grid_reference.py``), down to the local
minima they report.  Each side gets its own form of the same functions:
the reference scalar ones, ``grid_search`` batch ones.  These tests pin the
contract on the real solver problems (P1, P2, P4), the reference built from
the model's scalar methods, and on synthetic objectives that exercise the
corner cases the scalar loop defines: non-finite margins, non-finite
objectives, infeasible-only grids, exact ties (first optimum wins), and
several basins.
"""

from __future__ import annotations

import numpy as np
import pytest

from grid_reference import grid_search_scalar, scalar_forms
from repro.core.parameters import Parameter, ParameterSpace
from repro.core.problems import (
    DelayMinimizationProblem,
    EnergyMinimizationProblem,
    NashBargainingProblem,
)
from repro.core.requirements import ApplicationRequirements
from repro.core.tradeoff import EnergyDelayGame
from repro.exceptions import SolverError
from repro.optimization import hybrid
from repro.optimization.grid import grid_search
from repro.protocols.registry import PAPER_PROTOCOL_NAMES, create_protocol
from repro.scenario import default_scenario


def _requirements(scenario) -> ApplicationRequirements:
    return ApplicationRequirements(
        energy_budget=0.06, max_delay=6.0, sampling_rate=scenario.sampling_rate
    )


def _assert_same_result(a, b):
    assert np.array_equal(a.x, b.x)
    assert a.value == b.value
    assert a.feasible == b.feasible
    assert a.evaluations == b.evaluations
    assert a.constraint_violation == b.constraint_violation
    assert a.message == b.message
    assert len(a.local_minima) == len(b.local_minima)
    for left, right in zip(a.local_minima, b.local_minima):
        assert np.array_equal(left, right)
    # The best point leads: by objective, or by violation when none is feasible.
    assert np.array_equal(a.local_minima[0], a.x)


def _problem_paths(problem, batch_objective, **kwargs):
    """The reference on the problem's scalar forms, ``grid_search`` on its batch ones."""
    objective, constraints = scalar_forms(problem)
    scalar = grid_search_scalar(objective, problem.space, constraints, **kwargs)
    vectorized = grid_search(batch_objective, problem.space, problem.constraints(), **kwargs)
    _assert_same_result(scalar, vectorized)


@pytest.mark.parametrize("protocol", PAPER_PROTOCOL_NAMES)
@pytest.mark.parametrize("maximize", [False, True])
def test_vectorized_path_bit_identical_on_solver_problems(protocol, maximize):
    scenario = default_scenario()
    model = create_protocol(protocol, scenario)
    requirements = _requirements(scenario)
    if maximize:
        problem = NashBargainingProblem(
            model, requirements, disagreement_energy=0.06, disagreement_delay=6.0
        )
        objective = problem.objective
    else:
        problem = EnergyMinimizationProblem(model, requirements)
        objective = problem._energy  # noqa: SLF001 - testing the wiring
    _problem_paths(problem, objective, points_per_dimension=25, maximize=maximize)


@pytest.mark.parametrize("protocol", PAPER_PROTOCOL_NAMES)
def test_p2_problem_bit_identical(protocol):
    scenario = default_scenario()
    model = create_protocol(protocol, scenario)
    problem = DelayMinimizationProblem(model, _requirements(scenario))
    _problem_paths(problem, problem._latency, points_per_dimension=25)  # noqa: SLF001


@pytest.mark.parametrize("protocol", PAPER_PROTOCOL_NAMES)
def test_full_game_solution_bit_identical(protocol, monkeypatch):
    """End to end: a game solved with the vectorized grid stage equals the
    solve whose grid stage is the scalar reference, fed the problems'
    scalar forms, on every reported float."""
    scenario = default_scenario()
    model = create_protocol(protocol, scenario)
    requirements = _requirements(scenario)
    fast = EnergyDelayGame(model, requirements, grid_points_per_dimension=30).solve()

    def scalar_grid_stage(objective, space, constraints, points, maximize):
        # Each problem hands the hybrid a bound method as its objective.
        objective, constraints = scalar_forms(objective.__self__)
        return grid_search_scalar(objective, space, constraints, points, maximize)

    monkeypatch.setattr(hybrid, "grid_search", scalar_grid_stage)
    slow = EnergyDelayGame(model, requirements, grid_points_per_dimension=30).solve()
    assert fast.energy_best == slow.energy_best
    assert fast.delay_best == slow.delay_best
    assert fast.energy_worst == slow.energy_worst
    assert fast.delay_worst == slow.delay_worst
    assert fast.energy_star == slow.energy_star
    assert fast.delay_star == slow.delay_star
    assert fast.bargaining.nash_product == slow.bargaining.nash_product


# ---------------------------------------------------------------------- #
# Synthetic corner cases
# ---------------------------------------------------------------------- #


def _space() -> ParameterSpace:
    return ParameterSpace([Parameter(name="x", lower=0.0, upper=1.0)])


def _both_paths(objective, space, constraints=(), **kwargs):
    """Each side on its own form of ``objective`` and ``constraints``, each a
    ``(per point, per batch)`` pair; the results must agree bit for bit.
    Returns the reference's."""
    scalar = grid_search_scalar(objective[0], space, [c[0] for c in constraints], **kwargs)
    vectorized = grid_search(objective[1], space, [c[1] for c in constraints], **kwargs)
    _assert_same_result(scalar, vectorized)
    return scalar


def test_non_finite_margins_skip_points_identically():
    objective = (lambda x: float(x[0]), lambda grid: grid[:, 0])
    constraint = (
        lambda x: float("nan") if x[0] < 0.5 else 1.0,
        lambda grid: np.where(grid[:, 0] < 0.5, np.nan, 1.0),
    )
    result = _both_paths(objective, _space(), [constraint], points_per_dimension=21)
    assert result.x[0] >= 0.5  # the nan half was skipped


def test_non_finite_objective_skips_points_identically():
    objective = (
        lambda x: float("inf") if x[0] < 0.5 else float(x[0]),
        lambda grid: np.where(grid[:, 0] < 0.5, np.inf, grid[:, 0]),
    )
    assert _both_paths(objective, _space(), points_per_dimension=21).x[0] >= 0.5


def test_all_points_non_finite_raises_identically():
    scalar, batch = lambda x: float("nan"), lambda grid: np.full(grid.shape[0], np.nan)
    with pytest.raises(SolverError):
        grid_search_scalar(scalar, _space(), points_per_dimension=5)
    with pytest.raises(SolverError):
        grid_search(batch, _space(), points_per_dimension=5)


def test_infeasible_grid_returns_least_violation_identically():
    objective = (lambda x: float(x[0]), lambda grid: grid[:, 0])
    constraint = (lambda x: -1.0 - float(x[0]), lambda grid: -1.0 - grid[:, 0])
    result = _both_paths(objective, _space(), [constraint], points_per_dimension=11)
    assert not result.feasible
    assert result.x[0] == 0.0  # least violation at the lower edge


def test_exact_ties_keep_first_grid_point_identically():
    """A constant objective ties everywhere; both paths keep the first point."""
    objective = (lambda x: 1.0, lambda grid: np.ones(grid.shape[0]))
    assert _both_paths(objective, _space(), points_per_dimension=13).x[0] == 0.0


# ---------------------------------------------------------------------- #
# Local minima
# ---------------------------------------------------------------------- #


def test_local_minima_of_two_basins_best_first():
    # Minima at x = 0.2 (value 0.1) and x = 0.8 (value 0): the deeper one leads.
    objective = (
        lambda x: min((x[0] - 0.2) ** 2 + 0.1, (x[0] - 0.8) ** 2),
        lambda grid: np.minimum((grid[:, 0] - 0.2) ** 2 + 0.1, (grid[:, 0] - 0.8) ** 2),
    )
    minima = _both_paths(objective, _space(), points_per_dimension=11).local_minima
    np.testing.assert_allclose(minima, [[0.8], [0.2]])


def test_local_minima_when_maximizing():
    objective = (
        lambda x: -min((x[0] - 0.2) ** 2 + 0.1, (x[0] - 0.8) ** 2),
        lambda grid: -np.minimum((grid[:, 0] - 0.2) ** 2 + 0.1, (grid[:, 0] - 0.8) ** 2),
    )
    minima = _both_paths(objective, _space(), points_per_dimension=11, maximize=True)
    np.testing.assert_allclose(minima.local_minima, [[0.8], [0.2]])


def test_plateau_of_ties_yields_its_first_point():
    # A flat-bottomed bowl over the integers 0..10: zero on 3..6.
    space = ParameterSpace([Parameter(name="x", lower=0.0, upper=10.0)])
    objective = (
        lambda x: max(abs(float(x[0]) - 4.5) - 1.5, 0.0),
        lambda grid: np.maximum(np.abs(grid[:, 0] - 4.5) - 1.5, 0.0),
    )
    minima = _both_paths(objective, space, points_per_dimension=11).local_minima
    np.testing.assert_allclose(minima, [[3.0]])


def test_infeasible_neighbours_do_not_hide_a_boundary_minimum():
    # Decreasing objective cut off by x <= 0.55: the last feasible point
    # is a minimum although its (infeasible) neighbour is lower.
    objective = (lambda x: -float(x[0]), lambda grid: -grid[:, 0])
    constraint = (lambda x: 0.55 - float(x[0]), lambda grid: 0.55 - grid[:, 0])
    minima = _both_paths(objective, _space(), [constraint], points_per_dimension=11)
    np.testing.assert_allclose(minima.local_minima, [[0.5]])


def test_infeasible_grid_reports_the_local_minima_of_the_violation():
    # The violation 1 + min(|x - 0.2|, |x - 0.8| + 0.05) never reaches zero;
    # its grid minima are 0.2, then 0.8, whatever the objective prefers.
    objective = (lambda x: -float(x[0]), lambda grid: -grid[:, 0])

    def margin(x):
        return -1.0 - np.minimum(np.abs(x - 0.2), np.abs(x - 0.8) + 0.05)

    constraint = (lambda x: float(margin(x[0])), lambda grid: margin(grid[:, 0]))
    minima = _both_paths(objective, _space(), [constraint], points_per_dimension=11)
    np.testing.assert_allclose(minima.local_minima, [[0.2], [0.8]])


def test_two_dimensional_minima_use_the_full_neighbourhood():
    space = ParameterSpace(
        [Parameter(name="x", lower=0.0, upper=1.0), Parameter(name="y", lower=0.0, upper=1.0)]
    )

    def wells(x, y):
        return np.minimum((x - 0.2) ** 2 + (y - 0.2) ** 2, (x - 0.8) ** 2 + (y - 0.6) ** 2 - 0.01)

    objective = (
        lambda p: float(wells(p[0], p[1])), lambda grid: wells(grid[:, 0], grid[:, 1])
    )
    minima = _both_paths(objective, space, points_per_dimension=6).local_minima
    np.testing.assert_allclose(minima, [[0.8, 0.6], [0.2, 0.2]])


def test_degenerate_axis_keeps_the_grid_shape():
    # A fixed parameter (lower == upper) contributes one grid point.
    space = ParameterSpace(
        [Parameter(name="x", lower=0.0, upper=1.0), Parameter(name="k", lower=2.0, upper=2.0)]
    )
    objective = (lambda p: float((p[0] - 0.5) ** 2), lambda grid: (grid[:, 0] - 0.5) ** 2)
    minima = _both_paths(objective, space, points_per_dimension=5).local_minima
    np.testing.assert_allclose(minima, [[0.5, 2.0]])
