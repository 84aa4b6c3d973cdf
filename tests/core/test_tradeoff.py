"""Tests for the high-level EnergyDelayGame API."""

from __future__ import annotations

import pytest

from repro.core.fairness import is_proportionally_fair
from repro.core.tradeoff import EnergyDelayGame
from repro.exceptions import ConfigurationError

GAME_OPTIONS = {"grid_points_per_dimension": 50}


@pytest.fixture
def xmac_game(xmac, requirements) -> EnergyDelayGame:
    return EnergyDelayGame(xmac, requirements, **GAME_OPTIONS)


class TestEnergyDelayGame:
    def test_solution_contains_all_paper_quantities(self, xmac_game):
        solution = xmac_game.solve()
        assert solution.energy_best <= solution.energy_star <= solution.energy_worst
        assert solution.delay_best <= solution.delay_star <= solution.delay_worst
        assert solution.is_fully_feasible

    def test_agreement_is_proportionally_fair(self, xmac_game):
        solution = xmac_game.solve()
        assert is_proportionally_fair(
            solution.energy_star,
            solution.delay_star,
            solution.energy_best,
            solution.energy_worst,
            solution.delay_best,
            solution.delay_worst,
            tolerance=0.1,
        )

    def test_agreement_respects_requirements(self, xmac_game, requirements):
        solution = xmac_game.solve()
        assert solution.energy_star <= requirements.energy_budget * 1.001
        assert solution.delay_star <= requirements.max_delay * 1.001

    def test_relaxing_max_delay_moves_agreement_toward_energy_player(self, xmac, requirements):
        energies = [
            EnergyDelayGame(xmac, requirements.with_max_delay(delay), **GAME_OPTIONS)
            .solve()
            .energy_star
            for delay in (0.8, 2.0, 4.0)
        ]
        assert energies[0] >= energies[1] >= energies[2]

    def test_raising_energy_budget_moves_agreement_toward_delay_player(self, xmac, requirements):
        delays = [
            EnergyDelayGame(xmac, requirements.with_energy_budget(budget), **GAME_OPTIONS)
            .solve()
            .delay_star
            for budget in (0.002, 0.01, 0.05)
        ]
        assert delays[0] >= delays[1] >= delays[2]

    def test_invalid_inputs_rejected(self, xmac, requirements):
        with pytest.raises(ConfigurationError):
            EnergyDelayGame("nope", requirements)  # type: ignore[arg-type]
        with pytest.raises(ConfigurationError):
            EnergyDelayGame(xmac, "nope")  # type: ignore[arg-type]

    def test_all_protocols_solve_under_loose_requirements(self, all_protocols, requirements):
        for model in all_protocols.values():
            solution = EnergyDelayGame(model, requirements, **GAME_OPTIONS).solve()
            assert solution.is_fully_feasible
            assert solution.energy_star > 0
            assert solution.delay_star > 0
