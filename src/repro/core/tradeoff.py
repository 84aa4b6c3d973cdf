"""High-level public API: the energy-delay game.

:class:`EnergyDelayGame` binds one protocol model to application
requirements: solve the game and extract the energy-delay frontier behind
the paper's figures.  Requirement sweeps, the figures and the scenario
suite are spec kinds of :mod:`repro.api`: they solve one such game per
cell through the shared batch runner.

Example:
    >>> from repro import EnergyDelayGame, ApplicationRequirements
    >>> from repro.protocols import XMACModel
    >>> from repro.scenario import default_scenario
    >>> model = XMACModel(default_scenario())
    >>> requirements = ApplicationRequirements(energy_budget=0.06, max_delay=2.0)
    >>> solution = EnergyDelayGame(model, requirements).solve()
    >>> solution.energy_star <= solution.energy_worst
    True
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.bargaining import NashBargainingSolver
from repro.core.pareto import pareto_frontier
from repro.core.requirements import ApplicationRequirements
from repro.core.results import GameSolution, TradeoffPoint
from repro.exceptions import ConfigurationError
from repro.optimization.result import SolverResult
from repro.protocols.base import DutyCycledMACModel


class EnergyDelayGame:
    """The cooperative energy-delay game for one protocol and one scenario.

    Args:
        model: Analytical model of the protocol under study.
        requirements: Application requirements ``(Ebudget, Lmax, Fs)``.
        solver: Optional custom constrained-optimization backend; defaults to
            the grid-seeded hybrid in :mod:`repro.optimization.hybrid`.
        solver_options: Extra options forwarded to the backend.
    """

    def __init__(
        self,
        model: DutyCycledMACModel,
        requirements: ApplicationRequirements,
        solver: Optional[Callable[..., SolverResult]] = None,
        **solver_options: object,
    ) -> None:
        if not isinstance(model, DutyCycledMACModel):
            raise ConfigurationError(
                f"model must be a DutyCycledMACModel, got {type(model).__name__}"
            )
        if not isinstance(requirements, ApplicationRequirements):
            raise ConfigurationError(
                f"requirements must be ApplicationRequirements, got {type(requirements).__name__}"
            )
        self._model = model
        self._requirements = requirements
        if solver is None:
            self._bargaining_solver = NashBargainingSolver(**solver_options)
        else:
            self._bargaining_solver = NashBargainingSolver(solver, **solver_options)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def model(self) -> DutyCycledMACModel:
        """The protocol model the game is played over."""
        return self._model

    @property
    def requirements(self) -> ApplicationRequirements:
        """The application requirements of the game."""
        return self._requirements

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #

    def solve(self) -> GameSolution:
        """Solve (P1), (P2) and (P4) and return the complete game solution."""
        return self._bargaining_solver.solve(self._model, self._requirements)

    # ------------------------------------------------------------------ #
    # Frontier extraction
    # ------------------------------------------------------------------ #

    def frontier(
        self,
        samples_per_dimension: int = 120,
        respect_requirements: bool = False,
    ) -> List[TradeoffPoint]:
        """Sample the protocol's energy-delay Pareto frontier.

        The frontier is the curve on which the paper's figures place the
        trade-off points.  Points are obtained by evaluating the model on a
        dense parameter grid, discarding inadmissible configurations, and
        keeping the Pareto-efficient subset.

        Args:
            samples_per_dimension: Grid resolution along each parameter axis.
            respect_requirements: When True, configurations violating the
                application requirements are discarded before the Pareto
                filtering (the "feasible frontier" of the specific game).
        """
        space = self._model.parameter_space
        grid = space.grid(samples_per_dimension)
        admissible = self._model.is_admissible_many(grid)
        candidates = grid[admissible]
        if candidates.shape[0] == 0:
            return []
        energies = self._model.energy_many(candidates)
        delays = self._model.latency_many(candidates)
        if respect_requirements:
            satisfied = np.array(
                [
                    self._requirements.satisfied_by(energy, delay)
                    for energy, delay in zip(energies.tolist(), delays.tolist())
                ],
                dtype=bool,
            )
            candidates = candidates[satisfied]
            energies = energies[satisfied]
            delays = delays[satisfied]
        if candidates.shape[0] == 0:
            return []
        admissible_points = list(candidates)
        cost_array = np.stack([energies, delays], axis=-1)
        frontier_costs = pareto_frontier(cost_array)
        # Map each frontier point back to a parameter vector (first match).
        frontier_points: List[TradeoffPoint] = []
        for energy, delay in frontier_costs:
            index = int(
                np.argmin(
                    np.abs(cost_array[:, 0] - energy) + np.abs(cost_array[:, 1] - delay)
                )
            )
            frontier_points.append(
                TradeoffPoint(
                    parameters=self._model.coerce(admissible_points[index]),
                    energy=float(energy),
                    delay=float(delay),
                )
            )
        return frontier_points

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def summary(self) -> Dict[str, object]:
        """Solve the game and return a flat report dictionary."""
        solution = self.solve()
        report = solution.as_dict()
        report["scenario"] = dict(self._model.scenario.describe())
        return report
