"""Nash bargaining solver for the energy-delay game.

This module orchestrates the complete game of Section 2 of the paper for one
protocol and one set of application requirements:

1. solve (P1) — the energy player's problem — giving ``(Ebest, Lworst)``;
2. solve (P2) — the delay player's problem — giving ``(Eworst, Lbest)``;
3. build the disagreement point ``(Eworst, Lworst)`` and solve the concave
   reformulation (P4), giving the agreed point ``(E*, L*)``;
4. evaluate the proportional-fairness identity at the agreement.

The result is a :class:`~repro.core.results.GameSolution`, the record behind
each cluster of points in the paper's figures.
"""

from __future__ import annotations

from typing import Optional

from repro.core.fairness import proportional_fairness_residual
from repro.core.problems import (
    DelayMinimizationProblem,
    EnergyMinimizationProblem,
    GameEvaluations,
    NashBargainingProblem,
)
from repro.core.requirements import ApplicationRequirements
from repro.core.results import BargainingOutcome, GameSolution, OptimizationOutcome
from repro.protocols.base import DutyCycledMACModel


class NashBargainingSolver:
    """Solves the full energy-delay bargaining game for one protocol.

    (P1), (P2) and (P4) are each solved by the grid-seeded hybrid,
    :func:`~repro.optimization.hybrid.hybrid_solve`.

    Args:
        solver_options: Keyword arguments forwarded to the hybrid (e.g.
            ``grid_points_per_dimension``).
    """

    def __init__(self, **solver_options: object) -> None:
        self._solver_options = dict(solver_options)

    # ------------------------------------------------------------------ #
    # Individual stages (exposed for tests and ablations)
    # ------------------------------------------------------------------ #
    #
    # Each stage takes the game's shared evaluation memo as ``evaluations``;
    # a stage called on its own evaluates everything afresh.

    def solve_energy_problem(
        self,
        model: DutyCycledMACModel,
        requirements: ApplicationRequirements,
        *,
        evaluations: Optional[GameEvaluations] = None,
    ) -> OptimizationOutcome:
        """Solve (P1): minimize energy subject to the delay bound."""
        problem = EnergyMinimizationProblem(model, requirements, evaluations)
        return problem.solve(**self._solver_options)

    def solve_delay_problem(
        self,
        model: DutyCycledMACModel,
        requirements: ApplicationRequirements,
        *,
        evaluations: Optional[GameEvaluations] = None,
    ) -> OptimizationOutcome:
        """Solve (P2): minimize delay subject to the energy budget."""
        problem = DelayMinimizationProblem(model, requirements, evaluations)
        return problem.solve(**self._solver_options)

    def solve_bargaining_problem(
        self,
        model: DutyCycledMACModel,
        requirements: ApplicationRequirements,
        energy_optimum: OptimizationOutcome,
        delay_optimum: OptimizationOutcome,
        *,
        evaluations: Optional[GameEvaluations] = None,
    ) -> BargainingOutcome:
        """Solve (P4) given the two single-objective outcomes."""
        disagreement_energy = delay_optimum.point.energy  # Eworst
        disagreement_delay = energy_optimum.point.delay  # Lworst
        problem = NashBargainingProblem(
            model,
            requirements,
            disagreement_energy=disagreement_energy,
            disagreement_delay=disagreement_delay,
            evaluations=evaluations,
        )
        point, solver_result = problem.solve(**self._solver_options)
        residual = proportional_fairness_residual(
            energy_star=point.energy,
            delay_star=point.delay,
            energy_best=energy_optimum.point.energy,
            energy_worst=disagreement_energy,
            delay_best=delay_optimum.point.delay,
            delay_worst=disagreement_delay,
        )
        return BargainingOutcome(
            point=point,
            nash_product=problem.nash_product(solver_result.x),
            disagreement_energy=disagreement_energy,
            disagreement_delay=disagreement_delay,
            energy_gain=max(0.0, disagreement_energy - point.energy),
            delay_gain=max(0.0, disagreement_delay - point.delay),
            fairness_residual=residual,
            solver=solver_result.method,
            evaluations=solver_result.evaluations,
        )

    # ------------------------------------------------------------------ #
    # Full game
    # ------------------------------------------------------------------ #

    def solve(
        self, model: DutyCycledMACModel, requirements: ApplicationRequirements
    ) -> GameSolution:
        """Run the complete (P1) → (P2) → (P4) pipeline for one protocol.

        The three problems share one :class:`GameEvaluations`, so the grid
        they all scan is evaluated once per game.

        Raises:
            InfeasibleProblemError: if either single-objective problem has no
                feasible point (the application requirements cannot be met by
                this protocol in this scenario).
        """
        evaluations = GameEvaluations(model)
        energy_optimum = self.solve_energy_problem(model, requirements, evaluations=evaluations)
        delay_optimum = self.solve_delay_problem(model, requirements, evaluations=evaluations)
        bargaining = self.solve_bargaining_problem(
            model, requirements, energy_optimum, delay_optimum, evaluations=evaluations
        )
        return GameSolution(
            protocol=model.name,
            energy_budget=requirements.energy_budget,
            max_delay=requirements.max_delay,
            energy_optimum=energy_optimum,
            delay_optimum=delay_optimum,
            bargaining=bargaining,
        )
