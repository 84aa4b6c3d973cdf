"""Core framework: the paper's contribution.

This subpackage implements Section 2 of the paper:

* :mod:`repro.core.parameters` — tunable MAC parameter vectors ``X`` and
  their admissible boxes ``Theta``.
* :mod:`repro.core.requirements` — application requirements
  ``(Ebudget, Lmax)`` plus the sampling rate.
* :mod:`repro.core.problems` — the constrained optimization problems (P1)
  energy minimization, (P2) delay minimization and (P4) the concave Nash
  bargaining reformulation.
* :mod:`repro.core.bargaining` — the Nash Bargaining Solution applied to the
  energy/delay game (players are the metrics, not the nodes).
* :mod:`repro.core.fairness` — the proportional-fairness identity the paper
  proves for the chosen disagreement point.
* :mod:`repro.core.tradeoff` — :class:`EnergyDelayGame`, the high-level
  orchestrator that ties everything together (the main public API).
* :mod:`repro.core.results` — result dataclasses shared by all of the above.
"""

from repro.core.parameters import Parameter, ParameterSpace
from repro.core.requirements import ApplicationRequirements
from repro.core.results import (
    OptimizationOutcome,
    TradeoffPoint,
    BargainingOutcome,
    GameSolution,
)
from repro.core.problems import (
    EnergyMinimizationProblem,
    DelayMinimizationProblem,
    NashBargainingProblem,
)
from repro.core.bargaining import NashBargainingSolver
from repro.core.fairness import proportional_fairness_residual, is_proportionally_fair
from repro.core.tradeoff import EnergyDelayGame

__all__ = [
    "Parameter",
    "ParameterSpace",
    "ApplicationRequirements",
    "OptimizationOutcome",
    "TradeoffPoint",
    "BargainingOutcome",
    "GameSolution",
    "EnergyMinimizationProblem",
    "DelayMinimizationProblem",
    "NashBargainingProblem",
    "NashBargainingSolver",
    "proportional_fairness_residual",
    "is_proportionally_fair",
    "EnergyDelayGame",
]
