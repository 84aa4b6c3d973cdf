"""Unit tests for the finite-game Nash bargaining solution."""

from __future__ import annotations

import numpy as np
import pytest

from finite_bargaining import BargainingGame, nash_bargaining_solution, nash_product
from repro.exceptions import BargainingError


def dense_triangle(limit: float = 10.0, step: float = 0.25) -> BargainingGame:
    """Dense sample of the triangle u1 + u2 <= limit, u >= 0."""
    grid = np.arange(0.0, limit + step, step)
    payoffs = [(u1, u2) for u1 in grid for u2 in grid if u1 + u2 <= limit + 1e-9]
    return BargainingGame(payoffs, disagreement=(0.0, 0.0))


def asymmetric_triangle() -> BargainingGame:
    """Feasible set u1 / 8 + u2 / 2 <= 1 (player 1 can gain much more)."""
    grid1 = np.linspace(0.0, 8.0, 65)
    grid2 = np.linspace(0.0, 2.0, 41)
    payoffs = [(u1, u2) for u1 in grid1 for u2 in grid2 if u1 / 8.0 + u2 / 2.0 <= 1.0 + 1e-12]
    return BargainingGame(payoffs, disagreement=(0.0, 0.0))


class TestNashSolution:
    def test_symmetric_triangle_splits_evenly(self):
        point = nash_bargaining_solution(dense_triangle())
        assert point.payoff[0] == pytest.approx(5.0, abs=0.3)
        assert point.payoff[1] == pytest.approx(5.0, abs=0.3)

    def test_asymmetric_triangle_equalises_relative_share(self):
        # On u1/8 + u2/2 <= 1 the Nash solution is (4, 1): half of each max.
        point = nash_bargaining_solution(asymmetric_triangle())
        assert point.payoff[0] == pytest.approx(4.0, abs=0.3)
        assert point.payoff[1] == pytest.approx(1.0, abs=0.15)

    def test_solution_is_pareto_efficient(self):
        game = dense_triangle()
        point = nash_bargaining_solution(game)
        assert game.is_pareto_efficient(point.index, tolerance=1e-9)

    def test_nash_product_clips_negative_gains(self):
        products = nash_product(np.array([[-1.0, 5.0], [2.0, 3.0]]))
        assert products[0] == 0.0
        assert products[1] == 6.0

    def test_requires_rational_alternative(self):
        game = BargainingGame([(0.0, 0.0)], disagreement=(1.0, 1.0))
        with pytest.raises(BargainingError):
            nash_bargaining_solution(game)

    def test_moving_disagreement_point_shifts_solution(self):
        game_neutral = dense_triangle()
        game_biased = BargainingGame(game_neutral.payoffs, disagreement=(4.0, 0.0))
        neutral = nash_bargaining_solution(game_neutral)
        biased = nash_bargaining_solution(game_biased)
        # A better threat for player 1 moves the agreement in its favour.
        assert biased.payoff[0] > neutral.payoff[0]
