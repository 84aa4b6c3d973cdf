"""Unit tests for the optimization substrate (grid, SLSQP, hybrid)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parameters import Parameter, ParameterSpace
from repro.exceptions import SolverError
from repro.optimization import (
    grid_search,
    hybrid_solve,
    multistart_slsqp,
    slsqp_solve,
    weighted_sum_scan,
)


@pytest.fixture
def box_2d() -> ParameterSpace:
    return ParameterSpace([Parameter("x", -2.0, 2.0), Parameter("y", -2.0, 2.0)])


@pytest.fixture
def box_1d() -> ParameterSpace:
    return ParameterSpace([Parameter("x", 0.1, 10.0)])


def quadratic(point: np.ndarray) -> float:
    return float((point[0] - 1.0) ** 2 + (point[1] + 0.5) ** 2)


def u_shaped(point: np.ndarray) -> float:
    # The classic preamble-sampling energy shape a/x + b*x.
    return float(0.5 / point[0] + 2.0 * point[0])


class TestGridSearch:
    def test_unconstrained_quadratic(self, box_2d):
        result = grid_search(quadratic, box_2d, points_per_dimension=81)
        assert result.feasible
        assert np.allclose(result.x, [1.0, -0.5], atol=0.06)

    def test_constraint_respected(self, box_2d):
        result = grid_search(
            quadratic, box_2d, constraints=[lambda p: -0.0 - p[0]], points_per_dimension=81
        )
        assert result.feasible
        assert result.x[0] <= 1e-9

    def test_maximize_flag(self, box_1d):
        result = grid_search(lambda p: -u_shaped(p), box_1d, maximize=True, points_per_dimension=300)
        assert result.value == pytest.approx(-2.0, rel=1e-2)

    def test_infeasible_problem_reported(self, box_1d):
        result = grid_search(u_shaped, box_1d, constraints=[lambda p: -1.0], points_per_dimension=10)
        assert not result.feasible
        assert result.constraint_violation == pytest.approx(1.0)

    def test_all_nan_objective_raises(self, box_1d):
        with pytest.raises(SolverError):
            grid_search(lambda p: float("nan"), box_1d, points_per_dimension=5)


class TestSLSQP:
    def test_polishes_to_high_precision(self, box_2d):
        result = slsqp_solve(quadratic, box_2d, start=np.array([0.0, 0.0]))
        assert result.feasible
        assert np.allclose(result.x, [1.0, -0.5], atol=1e-5)

    def test_respects_inequality_constraint(self, box_2d):
        result = slsqp_solve(
            quadratic, box_2d, constraints=[lambda p: 0.5 - p[0]], start=np.array([0.0, 0.0])
        )
        assert result.x[0] <= 0.5 + 1e-6

    def test_tiny_objective_is_not_converged_at_the_start(self):
        # SLSQP's ftol is absolute: unscaled, a 1e-7-sized objective looks
        # converged after the first step.
        box = ParameterSpace([Parameter("x", 0.0, 10.0)])
        result = slsqp_solve(
            lambda p: 1e-7 * float((p[0] - 3.0) ** 2), box, start=np.array([0.0])
        )
        assert result.x[0] == pytest.approx(3.0, rel=1e-4)

    def test_multistart_escapes_bad_start(self, box_1d):
        result = multistart_slsqp(u_shaped, box_1d, random_starts=4, seed=1)
        assert result.feasible
        assert result.x[0] == pytest.approx(0.5, rel=1e-3)
        assert result.value == pytest.approx(2.0, rel=1e-3)


class TestHybrid:
    def test_matches_analytic_minimum_of_u_shape(self, box_1d):
        result = hybrid_solve(u_shaped, box_1d, grid_points_per_dimension=60)
        assert result.feasible
        assert result.x[0] == pytest.approx(0.5, rel=1e-3)

    def test_constrained_minimum_on_boundary(self, box_1d):
        # Constrain x >= 2: the unconstrained optimum 0.5 becomes infeasible.
        result = hybrid_solve(
            u_shaped, box_1d, constraints=[lambda p: p[0] - 2.0], grid_points_per_dimension=60
        )
        assert result.feasible
        assert result.x[0] == pytest.approx(2.0, rel=1e-3)

    def test_maximize_concave_log(self, box_1d):
        result = hybrid_solve(
            lambda p: float(np.log(p[0]) + np.log(10.0 - p[0])),
            box_1d,
            maximize=True,
            grid_points_per_dimension=60,
        )
        assert result.x[0] == pytest.approx(5.0, rel=1e-2)

    def test_reports_infeasibility_instead_of_raising(self, box_1d):
        result = hybrid_solve(u_shaped, box_1d, constraints=[lambda p: -1.0])
        assert not result.feasible

    def test_polishes_a_local_minimum_behind_the_grid_best(self):
        # A narrow well at x = 0.83 falls between grid points: its grid
        # point 0.8 is only the second-best local minimum of the grid.
        box = ParameterSpace([Parameter("x", 0.0, 1.0)])

        def well(p):
            return float((p[0] - 0.3) ** 2 + 0.05 - 0.5 * np.exp(-(((p[0] - 0.83) / 0.03) ** 2)))

        result = hybrid_solve(well, box, grid_points_per_dimension=11)
        assert result.x[0] == pytest.approx(0.83, abs=0.01)
        assert result.value < 0.0

    def test_multistart_runs_only_without_a_feasible_grid_point(self, box_1d, monkeypatch):
        calls = []

        def recording_multistart(*args, **kwargs):
            calls.append(kwargs)
            return multistart_slsqp(*args, **kwargs)

        monkeypatch.setattr(
            "repro.optimization.hybrid.multistart_slsqp", recording_multistart
        )
        hybrid_solve(u_shaped, box_1d, grid_points_per_dimension=30)
        assert calls == []
        hybrid_solve(
            u_shaped,
            box_1d,
            constraints=[lambda p: -1.0],
            grid_points_per_dimension=30,
            random_starts=2,
            seed=5,
        )
        assert len(calls) == 1
        assert (calls[0]["random_starts"], calls[0]["seed"]) == (2, 5)


class TestWeightedSum:
    def test_scan_traces_a_tradeoff(self, box_1d):
        # first objective favours small x, second favours large x.
        points = weighted_sum_scan(
            lambda p: float(p[0]),
            lambda p: float(10.0 - p[0]),
            box_1d,
            weights=[0.0, 0.5, 1.0],
            grid_points_per_dimension=40,
        )
        assert len(points) == 3
        # Full weight on the first objective drives x to its minimum and
        # full weight on the second drives it to its maximum.
        assert points[-1].first <= points[0].first
        assert points[0].second <= points[-1].second

    def test_invalid_weight_rejected(self, box_1d):
        with pytest.raises(SolverError):
            weighted_sum_scan(
                lambda p: float(p[0]), lambda p: float(-p[0]), box_1d, weights=[1.5]
            )
