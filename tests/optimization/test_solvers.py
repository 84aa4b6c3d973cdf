"""Unit tests for the optimization substrate (grid, polish, hybrid).

Every objective and margin is a batch function: it maps an ``(n, dim)``
array of points to ``(n,)`` values."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parameters import Parameter, ParameterSpace
from repro.exceptions import SolverError
from repro.optimization import grid_search, hybrid_solve, polish


@pytest.fixture
def box_2d() -> ParameterSpace:
    return ParameterSpace([Parameter("x", -2.0, 2.0), Parameter("y", -2.0, 2.0)])


@pytest.fixture
def box_1d() -> ParameterSpace:
    return ParameterSpace([Parameter("x", 0.1, 10.0)])


def quadratic(points: np.ndarray) -> np.ndarray:
    return (points[:, 0] - 1.0) ** 2 + (points[:, 1] + 0.5) ** 2


def u_shaped(points: np.ndarray) -> np.ndarray:
    # The classic preamble-sampling energy shape a/x + b*x.
    return 0.5 / points[:, 0] + 2.0 * points[:, 0]


def constant(value: float):
    """A batch function worth ``value`` everywhere."""
    return lambda points: np.full(len(points), value)


class TestGridSearch:
    def test_unconstrained_quadratic(self, box_2d):
        result = grid_search(quadratic, box_2d, points_per_dimension=81)
        assert result.feasible
        assert np.allclose(result.x, [1.0, -0.5], atol=0.06)

    def test_constraint_respected(self, box_2d):
        result = grid_search(
            quadratic, box_2d, constraints=[lambda p: -0.0 - p[:, 0]], points_per_dimension=81
        )
        assert result.feasible
        assert result.x[0] <= 1e-9

    def test_maximize_flag(self, box_1d):
        result = grid_search(lambda p: -u_shaped(p), box_1d, maximize=True, points_per_dimension=300)
        assert result.value == pytest.approx(-2.0, rel=1e-2)

    def test_infeasible_problem_reported(self, box_1d):
        result = grid_search(u_shaped, box_1d, [constant(-1.0)], points_per_dimension=10)
        assert not result.feasible
        assert result.constraint_violation == pytest.approx(1.0)

    def test_all_nan_objective_raises(self, box_1d):
        with pytest.raises(SolverError):
            grid_search(constant(float("nan")), box_1d, points_per_dimension=5)


class TestPolish:
    def test_quadratic_to_high_precision(self, box_2d):
        result = polish(quadratic, box_2d, starts=[np.array([0.0, 0.0])])
        assert result.feasible
        assert np.allclose(result.x, [1.0, -0.5], atol=1e-6)

    def test_stops_on_the_feasible_side_of_a_binding_margin(self, box_2d):
        result = polish(quadratic, box_2d, constraints=[lambda p: 0.5 - p[:, 0]])
        assert 0.5 - 1e-12 <= result.x[0] <= 0.5
        assert result.x[1] == pytest.approx(-0.5, abs=1e-6)
        assert result.constraint_violation == 0.0

    def test_reaches_a_box_bound(self):
        # The U-shape's minimum 0.5 lies left of the box: the bound wins.
        box = ParameterSpace([Parameter("x", 2.0, 10.0)])
        result = polish(u_shaped, box)
        assert result.x[0] == 2.0
        assert result.value == pytest.approx(u_shaped(np.array([[2.0]]))[0])

    def test_u_shape_from_the_midpoint(self, box_1d):
        result = polish(u_shaped, box_1d)
        assert result.x[0] == pytest.approx(0.5, rel=1e-6)
        assert result.value == pytest.approx(2.0, rel=1e-12)

    def test_tiny_objective_is_polished_like_a_large_one(self):
        box = ParameterSpace([Parameter("x", 0.0, 10.0)])
        result = polish(lambda p: 1e-7 * (p[:, 0] - 3.0) ** 2, box, starts=[np.array([0.0])])
        assert result.x[0] == pytest.approx(3.0, rel=1e-6)

    def test_maximize(self, box_1d):
        result = polish(lambda p: -u_shaped(p), box_1d, maximize=True)
        assert result.x[0] == pytest.approx(0.5, rel=1e-6)
        assert result.value == pytest.approx(-2.0, rel=1e-12)

    def test_infeasible_problem_reports_the_least_violation(self, box_1d):
        result = polish(u_shaped, box_1d, constraints=[lambda p: p[:, 0] - 20.0])
        assert not result.feasible
        assert result.x[0] == 10.0
        assert result.constraint_violation == pytest.approx(10.0)

    def test_one_dimensional_line_stays_in_its_bracket(self, box_1d):
        bracket = (np.array([2.0]), np.array([3.0]))
        result = polish(u_shaped, box_1d, starts=[np.array([2.5])], brackets=[bracket])
        assert result.x[0] == 2.0

    def test_all_nan_objective_raises(self, box_1d):
        with pytest.raises(SolverError):
            polish(constant(float("nan")), box_1d)


class TestHybrid:
    def test_matches_analytic_minimum_of_u_shape(self, box_1d):
        result = hybrid_solve(u_shaped, box_1d, grid_points_per_dimension=60)
        assert result.feasible
        assert result.x[0] == pytest.approx(0.5, rel=1e-3)

    def test_constrained_minimum_on_boundary(self, box_1d):
        # Constrain x >= 2: the unconstrained optimum 0.5 becomes infeasible.
        result = hybrid_solve(
            u_shaped, box_1d, constraints=[lambda p: p[:, 0] - 2.0], grid_points_per_dimension=60
        )
        assert result.feasible
        assert result.x[0] == pytest.approx(2.0, rel=1e-3)

    def test_maximize_concave_log(self, box_1d):
        result = hybrid_solve(
            lambda p: np.log(p[:, 0]) + np.log(10.0 - p[:, 0]),
            box_1d,
            maximize=True,
            grid_points_per_dimension=60,
        )
        assert result.x[0] == pytest.approx(5.0, rel=1e-2)

    def test_reports_infeasibility_instead_of_raising(self, box_1d):
        result = hybrid_solve(u_shaped, box_1d, constraints=[constant(-1.0)])
        assert not result.feasible

    def test_calls_every_function_once_per_batch(self, box_2d):
        batches = {"objective": [], "margin": []}

        def recording(name, function):
            def call(points):
                assert points.ndim == 2 and points.shape[1] == box_2d.dimension
                batches[name].append(points.copy())
                return function(points)

            return call

        result = hybrid_solve(
            recording("objective", quadratic),
            box_2d,
            [recording("margin", lambda p: 0.5 - p[:, 0] - 0.3 * p[:, 1])],
            grid_points_per_dimension=20,
        )
        # The grid, each polish round and the polished point's own row: every
        # function sees each batch once, and each row is one evaluation.
        objective, margin = batches["objective"], batches["margin"]
        assert len(objective) == len(margin)
        assert all(np.array_equal(a, b) for a, b in zip(objective, margin))
        assert objective[0].shape == (400, 2) and objective[-1].shape == (1, 2)
        assert sum(len(batch) for batch in objective) == result.evaluations

    def test_polishes_a_local_minimum_behind_the_grid_best(self):
        # A narrow well at x = 0.83 falls between grid points: its grid
        # point 0.8 is only the second-best local minimum of the grid.
        box = ParameterSpace([Parameter("x", 0.0, 1.0)])

        def well(p):
            return (p[:, 0] - 0.3) ** 2 + 0.05 - 0.5 * np.exp(-(((p[:, 0] - 0.83) / 0.03) ** 2))

        result = hybrid_solve(well, box, grid_points_per_dimension=11)
        assert result.x[0] == pytest.approx(0.83, abs=0.01)
        assert result.value < 0.0

    def test_polish_is_called_through_the_module_name(self, box_1d, monkeypatch):
        # The end-to-end benchmark times the polish by wrapping this name.
        calls = []

        def recording_polish(*args, **kwargs):
            calls.append(args)
            return polish(*args, **kwargs)

        monkeypatch.setattr("repro.optimization.hybrid.slsqp_solve", recording_polish)
        result = hybrid_solve(u_shaped, box_1d, grid_points_per_dimension=30)
        assert len(calls) == 1
        assert result.method == "hybrid(polish)"

    def test_infeasible_grid_polishes_every_local_minimum_of_the_violation(
        self, box_1d, monkeypatch
    ):
        starts = []

        def recording_polish(objective, space, constraints, these, *args):
            starts.extend(these)
            return polish(objective, space, constraints, these, *args)

        monkeypatch.setattr("repro.optimization.hybrid.slsqp_solve", recording_polish)
        # The violation 1 + max(0, 3 - |x - 5|) never reaches zero and is
        # least below x = 2 and above x = 8: two plateaus, two grid minima.
        def margin(p):
            return -1.0 - np.maximum(0.0, 3.0 - np.abs(p[:, 0] - 5.0))

        result = hybrid_solve(u_shaped, box_1d, constraints=[margin], grid_points_per_dimension=30)
        assert not result.feasible
        assert len(starts) >= 2
        assert result.constraint_violation == pytest.approx(1.0)

    def test_violation_polish_finds_a_sliver_the_grid_misses(self, box_1d):
        # Feasible only on [4.2, 4.25]: no point of an 11-point grid is.
        margin = lambda p: 0.025 - np.abs(p[:, 0] - 4.225)  # noqa: E731
        assert not grid_search(u_shaped, box_1d, [margin], points_per_dimension=11).feasible
        result = hybrid_solve(u_shaped, box_1d, [margin], grid_points_per_dimension=11)
        assert result.feasible
        assert 4.2 <= result.x[0] <= 4.25
