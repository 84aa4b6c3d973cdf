"""The vectorized grid-search path: equivalence and detection.

``grid_search`` evaluates a grid whole when every function carries a
``.many`` twin, and must be interchangeable bit for bit with the scalar
reference ``grid_search_scalar``, down to the local minima they report;
these tests pin the contract
on the real solver problems (P1, P2, P4) and on synthetic objectives that
exercise the corner cases the scalar loop defines: non-finite margins,
non-finite objectives, infeasible-only grids, exact ties (first optimum
wins), and several basins.
"""

from __future__ import annotations

import numpy as np
import pytest

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
from repro.optimization.grid import batched, grid_search, grid_search_scalar
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
    if a.feasible:
        assert np.array_equal(a.local_minima[0], a.x)
    else:
        assert a.local_minima == ()


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
        objective = batched(problem.objective, problem.objective_many)
    else:
        problem = EnergyMinimizationProblem(model, requirements)
        objective = problem._energy_objective()  # noqa: SLF001 - testing the wiring
    constraints = problem.constraints()
    # Every function carries a twin, so grid_search takes the batched path.
    assert all(hasattr(function, "many") for function in (objective, *constraints))
    kwargs = {"points_per_dimension": 25, "maximize": maximize}
    scalar = grid_search_scalar(objective, problem.space, constraints, **kwargs)
    vectorized = grid_search(objective, problem.space, constraints, **kwargs)
    _assert_same_result(scalar, vectorized)


@pytest.mark.parametrize("protocol", PAPER_PROTOCOL_NAMES)
def test_p2_problem_bit_identical(protocol):
    scenario = default_scenario()
    model = create_protocol(protocol, scenario)
    problem = DelayMinimizationProblem(model, _requirements(scenario))
    objective = problem._latency_objective()  # noqa: SLF001
    constraints = problem.constraints()
    scalar = grid_search_scalar(objective, problem.space, constraints, points_per_dimension=25)
    vectorized = grid_search(objective, problem.space, constraints, points_per_dimension=25)
    _assert_same_result(scalar, vectorized)


@pytest.mark.parametrize("protocol", PAPER_PROTOCOL_NAMES)
def test_full_game_solution_bit_identical(protocol, monkeypatch):
    """End to end: a game solved with the vectorized grid stage equals the
    solve whose grid stage is the scalar reference, on every reported float."""
    scenario = default_scenario()
    model = create_protocol(protocol, scenario)
    requirements = _requirements(scenario)
    fast = EnergyDelayGame(model, requirements, grid_points_per_dimension=30).solve()
    monkeypatch.setattr(hybrid, "grid_search", grid_search_scalar)
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


def _with_many(scalar_fn, vector_fn):
    return batched(scalar_fn, vector_fn)


def test_batched_wrapper_forwards_and_carries_many():
    wrapped = batched(lambda x: float(x[0]) ** 2, lambda grid: grid[:, 0] ** 2)
    assert wrapped(np.array([3.0])) == 9.0
    assert np.array_equal(wrapped.many(np.array([[2.0], [4.0]])), np.array([4.0, 16.0]))


def test_auto_detection_falls_back_without_many():
    """A plain (un-batched) constraint forces the scalar loop; results match."""
    objective = _with_many(lambda x: float(x[0]), lambda grid: grid[:, 0])
    plain_constraint = lambda x: float(x[0]) - 0.25  # noqa: E731 - no .many twin
    result = grid_search(objective, _space(), [plain_constraint], points_per_dimension=17)
    reference = grid_search_scalar(objective, _space(), [plain_constraint], points_per_dimension=17)
    _assert_same_result(result, reference)


def test_non_finite_margins_skip_points_identically():
    objective = _with_many(lambda x: float(x[0]), lambda grid: grid[:, 0])
    constraint = _with_many(
        lambda x: float("nan") if x[0] < 0.5 else 1.0,
        lambda grid: np.where(grid[:, 0] < 0.5, np.nan, 1.0),
    )
    scalar = grid_search_scalar(objective, _space(), [constraint], points_per_dimension=21)
    vectorized = grid_search(objective, _space(), [constraint], points_per_dimension=21)
    _assert_same_result(scalar, vectorized)
    assert scalar.x[0] >= 0.5  # the nan half was skipped


def test_non_finite_objective_skips_points_identically():
    objective = _with_many(
        lambda x: float("inf") if x[0] < 0.5 else float(x[0]),
        lambda grid: np.where(grid[:, 0] < 0.5, np.inf, grid[:, 0]),
    )
    scalar = grid_search_scalar(objective, _space(), points_per_dimension=21)
    vectorized = grid_search(objective, _space(), points_per_dimension=21)
    _assert_same_result(scalar, vectorized)
    assert scalar.x[0] >= 0.5


def test_all_points_non_finite_raises_identically():
    objective = _with_many(
        lambda x: float("nan"), lambda grid: np.full(grid.shape[0], np.nan)
    )
    with pytest.raises(SolverError):
        grid_search_scalar(objective, _space(), points_per_dimension=5)
    with pytest.raises(SolverError):
        grid_search(objective, _space(), points_per_dimension=5)


def test_infeasible_grid_returns_least_violation_identically():
    objective = _with_many(lambda x: float(x[0]), lambda grid: grid[:, 0])
    constraint = _with_many(
        lambda x: -1.0 - float(x[0]), lambda grid: -1.0 - grid[:, 0]
    )
    scalar = grid_search_scalar(objective, _space(), [constraint], points_per_dimension=11)
    vectorized = grid_search(objective, _space(), [constraint], points_per_dimension=11)
    _assert_same_result(scalar, vectorized)
    assert not scalar.feasible
    assert scalar.x[0] == 0.0  # least violation at the lower edge


def test_exact_ties_keep_first_grid_point_identically():
    """A constant objective ties everywhere; both paths keep the first point."""
    objective = _with_many(lambda x: 1.0, lambda grid: np.ones(grid.shape[0]))
    scalar = grid_search_scalar(objective, _space(), points_per_dimension=13)
    vectorized = grid_search(objective, _space(), points_per_dimension=13)
    _assert_same_result(scalar, vectorized)
    assert scalar.x[0] == 0.0


# ---------------------------------------------------------------------- #
# Local minima
# ---------------------------------------------------------------------- #


def _both_paths(objective, space, constraints=(), **kwargs):
    scalar = grid_search_scalar(objective, space, constraints, **kwargs)
    vectorized = grid_search(objective, space, constraints, **kwargs)
    _assert_same_result(scalar, vectorized)
    return scalar.local_minima


def test_local_minima_of_two_basins_best_first():
    # Minima at x = 0.2 (value 0.1) and x = 0.8 (value 0): the deeper one leads.
    objective = _with_many(
        lambda x: min((x[0] - 0.2) ** 2 + 0.1, (x[0] - 0.8) ** 2),
        lambda grid: np.minimum((grid[:, 0] - 0.2) ** 2 + 0.1, (grid[:, 0] - 0.8) ** 2),
    )
    minima = _both_paths(objective, _space(), points_per_dimension=11)
    np.testing.assert_allclose(minima, [[0.8], [0.2]])


def test_local_minima_when_maximizing():
    objective = _with_many(
        lambda x: -min((x[0] - 0.2) ** 2 + 0.1, (x[0] - 0.8) ** 2),
        lambda grid: -np.minimum((grid[:, 0] - 0.2) ** 2 + 0.1, (grid[:, 0] - 0.8) ** 2),
    )
    minima = _both_paths(objective, _space(), points_per_dimension=11, maximize=True)
    np.testing.assert_allclose(minima, [[0.8], [0.2]])


def test_plateau_of_ties_yields_its_first_point():
    # A flat-bottomed bowl over the integers 0..10: zero on 3..6.
    space = ParameterSpace([Parameter(name="x", lower=0.0, upper=10.0)])
    objective = _with_many(
        lambda x: max(abs(float(x[0]) - 4.5) - 1.5, 0.0),
        lambda grid: np.maximum(np.abs(grid[:, 0] - 4.5) - 1.5, 0.0),
    )
    np.testing.assert_allclose(_both_paths(objective, space, points_per_dimension=11), [[3.0]])


def test_infeasible_neighbours_do_not_hide_a_boundary_minimum():
    # Decreasing objective cut off by x <= 0.55: the last feasible point
    # is a minimum although its (infeasible) neighbour is lower.
    objective = _with_many(lambda x: -float(x[0]), lambda grid: -grid[:, 0])
    constraint = _with_many(lambda x: 0.55 - float(x[0]), lambda grid: 0.55 - grid[:, 0])
    minima = _both_paths(objective, _space(), [constraint], points_per_dimension=11)
    np.testing.assert_allclose(minima, [[0.5]])


def test_infeasible_grid_has_no_local_minima():
    objective = _with_many(lambda x: float(x[0]), lambda grid: grid[:, 0])
    constraint = _with_many(lambda x: -1.0, lambda grid: np.full(grid.shape[0], -1.0))
    assert _both_paths(objective, _space(), [constraint], points_per_dimension=7) == ()


def test_two_dimensional_minima_use_the_full_neighbourhood():
    space = ParameterSpace(
        [Parameter(name="x", lower=0.0, upper=1.0), Parameter(name="y", lower=0.0, upper=1.0)]
    )

    def wells(x, y):
        return np.minimum((x - 0.2) ** 2 + (y - 0.2) ** 2, (x - 0.8) ** 2 + (y - 0.6) ** 2 - 0.01)

    objective = _with_many(
        lambda p: float(wells(p[0], p[1])), lambda grid: wells(grid[:, 0], grid[:, 1])
    )
    minima = _both_paths(objective, space, points_per_dimension=6)
    np.testing.assert_allclose(minima, [[0.8, 0.6], [0.2, 0.2]])


def test_degenerate_axis_keeps_the_grid_shape():
    # A fixed parameter (lower == upper) contributes one grid point.
    space = ParameterSpace(
        [Parameter(name="x", lower=0.0, upper=1.0), Parameter(name="k", lower=2.0, upper=2.0)]
    )
    objective = _with_many(
        lambda p: float((p[0] - 0.5) ** 2), lambda grid: (grid[:, 0] - 0.5) ** 2
    )
    np.testing.assert_allclose(_both_paths(objective, space, points_per_dimension=5), [[0.5, 2.0]])
