"""Tests for the optimization problems (P1), (P2) and (P4)."""

from __future__ import annotations

import pytest

from repro.core.problems import (
    DelayMinimizationProblem,
    EnergyMinimizationProblem,
    NashBargainingProblem,
)
from repro.core.requirements import ApplicationRequirements
from repro.exceptions import ConfigurationError, InfeasibleProblemError

SOLVER_OPTIONS = {"grid_points_per_dimension": 50}


class TestEnergyMinimization:
    def test_solution_respects_delay_bound(self, xmac, requirements):
        outcome = EnergyMinimizationProblem(xmac, requirements).solve(**SOLVER_OPTIONS)
        assert outcome.feasible
        assert outcome.point.delay <= requirements.max_delay * 1.001

    def test_tighter_delay_bound_costs_more_energy(self, xmac, requirements):
        loose = EnergyMinimizationProblem(xmac, requirements).solve(**SOLVER_OPTIONS)
        tight = EnergyMinimizationProblem(
            xmac, requirements.with_max_delay(0.5)
        ).solve(**SOLVER_OPTIONS)
        assert tight.point.energy >= loose.point.energy

    def test_binding_constraint_reported_for_tight_bound(self, xmac, requirements):
        tight = EnergyMinimizationProblem(
            xmac, requirements.with_max_delay(0.5)
        ).solve(**SOLVER_OPTIONS)
        assert tight.binding_constraint == "delay-bound"

    def test_infeasible_delay_bound_raises(self, xmac, requirements):
        with pytest.raises(InfeasibleProblemError):
            EnergyMinimizationProblem(
                xmac, requirements.with_max_delay(0.001)
            ).solve(**SOLVER_OPTIONS)

    def test_invalid_model_rejected(self, requirements):
        with pytest.raises(ConfigurationError):
            EnergyMinimizationProblem("not-a-model", requirements)  # type: ignore[arg-type]


class TestDelayMinimization:
    def test_solution_respects_energy_budget(self, xmac, requirements):
        outcome = DelayMinimizationProblem(xmac, requirements).solve(**SOLVER_OPTIONS)
        assert outcome.feasible
        assert outcome.point.energy <= requirements.energy_budget * 1.001

    def test_tighter_budget_costs_more_delay(self, xmac, requirements):
        loose = DelayMinimizationProblem(xmac, requirements).solve(**SOLVER_OPTIONS)
        tight = DelayMinimizationProblem(
            xmac, requirements.with_energy_budget(0.002)
        ).solve(**SOLVER_OPTIONS)
        assert tight.point.delay >= loose.point.delay

    def test_infeasible_budget_raises(self, xmac, requirements):
        with pytest.raises(InfeasibleProblemError):
            DelayMinimizationProblem(
                xmac, requirements.with_energy_budget(1e-6)
            ).solve(**SOLVER_OPTIONS)

    def test_delay_optimum_is_faster_than_energy_optimum(self, dmac, requirements):
        energy_opt = EnergyMinimizationProblem(dmac, requirements).solve(**SOLVER_OPTIONS)
        delay_opt = DelayMinimizationProblem(dmac, requirements).solve(**SOLVER_OPTIONS)
        assert delay_opt.point.delay <= energy_opt.point.delay
        assert delay_opt.point.energy >= energy_opt.point.energy


class TestNashBargainingProblem:
    @pytest.fixture
    def corner_points(self, xmac, requirements):
        energy_opt = EnergyMinimizationProblem(xmac, requirements).solve(**SOLVER_OPTIONS)
        delay_opt = DelayMinimizationProblem(xmac, requirements).solve(**SOLVER_OPTIONS)
        return energy_opt, delay_opt

    def test_agreement_dominates_disagreement_point(self, xmac, requirements, corner_points):
        energy_opt, delay_opt = corner_points
        problem = NashBargainingProblem(
            xmac,
            requirements,
            disagreement_energy=delay_opt.point.energy,
            disagreement_delay=energy_opt.point.delay,
        )
        point, result = problem.solve(**SOLVER_OPTIONS)
        assert result.feasible
        assert point.energy <= delay_opt.point.energy + 1e-9
        assert point.delay <= energy_opt.point.delay + 1e-9

    def test_agreement_lies_between_the_corner_points(self, xmac, requirements, corner_points):
        energy_opt, delay_opt = corner_points
        problem = NashBargainingProblem(
            xmac,
            requirements,
            disagreement_energy=delay_opt.point.energy,
            disagreement_delay=energy_opt.point.delay,
        )
        point, _ = problem.solve(**SOLVER_OPTIONS)
        assert energy_opt.point.energy <= point.energy <= delay_opt.point.energy
        assert delay_opt.point.delay <= point.delay <= energy_opt.point.delay

    def test_nash_product_positive_at_agreement(self, xmac, requirements, corner_points):
        energy_opt, delay_opt = corner_points
        problem = NashBargainingProblem(
            xmac,
            requirements,
            disagreement_energy=delay_opt.point.energy,
            disagreement_delay=energy_opt.point.delay,
        )
        point, result = problem.solve(**SOLVER_OPTIONS)
        assert problem.nash_product(result.x) > 0

    def test_invalid_disagreement_point_rejected(self, xmac, requirements):
        with pytest.raises(ConfigurationError):
            NashBargainingProblem(xmac, requirements, disagreement_energy=0.0, disagreement_delay=1.0)
