"""Unit tests for the bargaining-game container."""

from __future__ import annotations

import numpy as np
import pytest

from finite_bargaining import BargainingGame
from repro.exceptions import BargainingError


@pytest.fixture
def triangle_game() -> BargainingGame:
    """Feasible set: the lattice of a right triangle u1 + u2 <= 10."""
    payoffs = [
        (u1, u2)
        for u1 in range(0, 11)
        for u2 in range(0, 11)
        if u1 + u2 <= 10
    ]
    return BargainingGame(payoffs, disagreement=(0.0, 0.0), player_names=("energy", "delay"))


class TestBargainingGame:
    def test_size_and_accessors(self, triangle_game):
        assert triangle_game.size == 66
        assert triangle_game.player_names == ("energy", "delay")
        assert np.allclose(triangle_game.disagreement, [0.0, 0.0])

    def test_gains_relative_to_disagreement(self):
        game = BargainingGame([(3.0, 4.0)], disagreement=(1.0, 1.0))
        assert np.allclose(game.gains(), [[2.0, 3.0]])

    def test_individually_rational_filtering(self):
        game = BargainingGame([(3.0, 4.0), (0.0, 9.0)], disagreement=(1.0, 1.0))
        assert game.individually_rational_indices().tolist() == [0]
        assert game.has_rational_alternative()

    def test_no_rational_alternative(self):
        game = BargainingGame([(0.0, 0.0)], disagreement=(1.0, 1.0))
        assert not game.has_rational_alternative()

    def test_is_pareto_efficient(self, triangle_game):
        payoffs = triangle_game.payoffs
        efficient_index = int(np.argmax(payoffs[:, 0] + payoffs[:, 1]))
        assert triangle_game.is_pareto_efficient(efficient_index)
        interior_index = int(np.argmin(payoffs[:, 0] + payoffs[:, 1]))
        assert not triangle_game.is_pareto_efficient(interior_index)

    def test_from_costs_flips_sign(self):
        game = BargainingGame.from_costs([(0.01, 2.0)], disagreement_costs=(0.05, 5.0))
        assert np.allclose(game.payoffs, [[-0.01, -2.0]])
        assert np.allclose(game.gains(), [[0.04, 3.0]])

    def test_swapped_exchanges_players(self):
        game = BargainingGame([(1.0, 2.0)], disagreement=(0.5, 0.25), player_names=("a", "b"))
        swapped = game.swapped()
        assert np.allclose(swapped.payoffs, [[2.0, 1.0]])
        assert np.allclose(swapped.disagreement, [0.25, 0.5])
        assert swapped.player_names == ("b", "a")

    def test_rescaled_applies_affine_map(self):
        game = BargainingGame([(1.0, 2.0)], disagreement=(0.0, 0.0))
        rescaled = game.rescaled(scale=(2.0, 3.0), shift=(1.0, -1.0))
        assert np.allclose(rescaled.payoffs, [[3.0, 5.0]])
        assert np.allclose(rescaled.disagreement, [1.0, -1.0])

    def test_rescaled_requires_positive_scale(self):
        game = BargainingGame([(1.0, 2.0)], disagreement=(0.0, 0.0))
        with pytest.raises(BargainingError):
            game.rescaled(scale=(-1.0, 1.0), shift=(0.0, 0.0))

    def test_restricted_to_subset(self, triangle_game):
        restricted = triangle_game.restricted_to([0, 1, 2])
        assert restricted.size == 3

    def test_restricted_to_invalid_indices(self, triangle_game):
        with pytest.raises(BargainingError):
            triangle_game.restricted_to([])
        with pytest.raises(BargainingError):
            triangle_game.restricted_to([10_000])

    def test_invalid_construction(self):
        with pytest.raises(BargainingError):
            BargainingGame([], disagreement=(0.0, 0.0))
        with pytest.raises(BargainingError):
            BargainingGame([(1.0, 2.0, 3.0)], disagreement=(0.0, 0.0))
        with pytest.raises(BargainingError):
            BargainingGame([(np.nan, 1.0)], disagreement=(0.0, 0.0))
        with pytest.raises(BargainingError):
            BargainingGame([(1.0, 1.0)], disagreement=(0.0,))
