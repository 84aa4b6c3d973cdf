"""High-level public API: the energy-delay game.

:class:`EnergyDelayGame` binds one protocol model to application
requirements and solves the game.  Requirement sweeps, the figures and the
scenario suite are spec kinds of :mod:`repro.api`: they solve one such game
per cell through the shared batch runner.

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

from repro.core.bargaining import NashBargainingSolver
from repro.core.requirements import ApplicationRequirements
from repro.core.results import GameSolution
from repro.exceptions import ConfigurationError
from repro.protocols.base import DutyCycledMACModel


class EnergyDelayGame:
    """The cooperative energy-delay game for one protocol and one scenario.

    Args:
        model: Analytical model of the protocol under study.
        requirements: Application requirements ``(Ebudget, Lmax, Fs)``.
        solver_options: Options forwarded to the grid-seeded hybrid solver
            (:func:`repro.optimization.hybrid.hybrid_solve`).
    """

    def __init__(
        self,
        model: DutyCycledMACModel,
        requirements: ApplicationRequirements,
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
        self._bargaining_solver = NashBargainingSolver(**solver_options)

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
