"""Result records shared by the core framework.

These dataclasses are what users get back from the public API: the outcome of
the single-objective problems (P1) and (P2), the Nash bargaining outcome
(P3)/(P4), and the full game solution that bundles everything together the
way the paper's figures report it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.exceptions import ConfigurationError
from repro.units import s_to_ms


@dataclass(frozen=True)
class TradeoffPoint:
    """One operating point of a protocol: parameters and the two metrics.

    Attributes:
        parameters: Protocol parameter values ``X`` (by name).
        energy: System-wide energy consumption ``E(X)`` in J/s.
        delay: Maximum end-to-end delay ``L(X)`` in seconds.
    """

    parameters: Mapping[str, float]
    energy: float
    delay: float

    def __post_init__(self) -> None:
        if self.energy < 0 or self.delay < 0:
            raise ConfigurationError(
                f"energy and delay must be non-negative, got ({self.energy}, {self.delay})"
            )

    @property
    def delay_ms(self) -> float:
        """Delay in milliseconds, the unit used by the paper's figures."""
        return s_to_ms(self.delay)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view for reports and CSV writers."""
        return {
            "parameters": dict(self.parameters),
            "energy_j_per_s": self.energy,
            "delay_s": self.delay,
            "delay_ms": self.delay_ms,
        }


@dataclass(frozen=True)
class OptimizationOutcome:
    """Outcome of one single-objective problem ((P1) or (P2)).

    Attributes:
        problem: ``"P1-energy"`` or ``"P2-delay"``.
        point: The optimal operating point.
        feasible: Whether the requirements could be met at all.
        solver: Name of the solver that produced the point.
        evaluations: Number of model evaluations spent.
        binding_constraint: Name of the constraint that is active at the
            optimum (``"delay-bound"``, ``"energy-budget"``, ``"parameter-bound"``
            or ``"interior"``), useful to explain the saturation behaviour in
            the paper's figures.
    """

    problem: str
    point: TradeoffPoint
    feasible: bool
    solver: str
    evaluations: int = 0
    binding_constraint: str = "unknown"

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view for reports and CSV writers."""
        return {
            "problem": self.problem,
            "feasible": self.feasible,
            "solver": self.solver,
            "evaluations": self.evaluations,
            "binding_constraint": self.binding_constraint,
            **self.point.as_dict(),
        }


@dataclass(frozen=True)
class BargainingOutcome:
    """Outcome of the Nash bargaining problem (P3)/(P4).

    Attributes:
        point: The agreed operating point ``(E*, L*)`` and its parameters.
        nash_product: Value of ``(Eworst - E*)(Lworst - L*)``.
        disagreement_energy: ``Eworst``, the energy player's threat value.
        disagreement_delay: ``Lworst``, the delay player's threat value.
        energy_gain: ``Eworst - E*`` (how much the energy player gained).
        delay_gain: ``Lworst - L*`` (how much the delay player gained).
        fairness_residual: Difference between the two sides of the
            proportional-fairness identity (0 means exactly proportionally
            fair).
        solver: Name of the solver that produced the point.
        evaluations: Number of model evaluations spent.
    """

    point: TradeoffPoint
    nash_product: float
    disagreement_energy: float
    disagreement_delay: float
    energy_gain: float
    delay_gain: float
    fairness_residual: float
    solver: str = ""
    evaluations: int = 0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view for reports and CSV writers."""
        return {
            "nash_product": self.nash_product,
            "disagreement_energy": self.disagreement_energy,
            "disagreement_delay": self.disagreement_delay,
            "energy_gain": self.energy_gain,
            "delay_gain": self.delay_gain,
            "fairness_residual": self.fairness_residual,
            "solver": self.solver,
            "evaluations": self.evaluations,
            **self.point.as_dict(),
        }


@dataclass(frozen=True)
class GameSolution:
    """Complete solution of the energy-delay game for one protocol.

    This is the record behind each group of points in the paper's figures:
    the energy-optimal corner (``Ebest``, ``Lworst``), the delay-optimal
    corner (``Eworst``, ``Lbest``) and the Nash bargaining trade-off point
    ``(E*, L*)`` between them.
    """

    protocol: str
    energy_budget: float
    max_delay: float
    energy_optimum: OptimizationOutcome
    delay_optimum: OptimizationOutcome
    bargaining: BargainingOutcome

    # ------------------------------------------------------------------ #
    # The paper's named quantities
    # ------------------------------------------------------------------ #

    @property
    def energy_best(self) -> float:
        """``Ebest = E(X*_E)``: minimum energy meeting the delay bound."""
        return self.energy_optimum.point.energy

    @property
    def delay_worst(self) -> float:
        """``Lworst = L(X*_E)``: the delay paid at the energy optimum."""
        return self.energy_optimum.point.delay

    @property
    def delay_best(self) -> float:
        """``Lbest = L(X*_L)``: minimum delay meeting the energy budget."""
        return self.delay_optimum.point.delay

    @property
    def energy_worst(self) -> float:
        """``Eworst = E(X*_L)``: the energy paid at the delay optimum."""
        return self.delay_optimum.point.energy

    @property
    def energy_star(self) -> float:
        """``E*``: the agreed (Nash bargaining) energy."""
        return self.bargaining.point.energy

    @property
    def delay_star(self) -> float:
        """``L*``: the agreed (Nash bargaining) delay."""
        return self.bargaining.point.delay

    @property
    def is_fully_feasible(self) -> bool:
        """Whether both single-objective problems were feasible."""
        return self.energy_optimum.feasible and self.delay_optimum.feasible

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary with the paper's named quantities (for tables)."""
        return {
            "protocol": self.protocol,
            "energy_budget_j_per_s": self.energy_budget,
            "max_delay_s": self.max_delay,
            "E_best": self.energy_best,
            "L_worst": self.delay_worst,
            "E_worst": self.energy_worst,
            "L_best": self.delay_best,
            "E_star": self.energy_star,
            "L_star": self.delay_star,
            "L_star_ms": s_to_ms(self.delay_star),
            "nash_product": self.bargaining.nash_product,
            "fairness_residual": self.bargaining.fairness_residual,
            "parameters_energy_opt": dict(self.energy_optimum.point.parameters),
            "parameters_delay_opt": dict(self.delay_optimum.point.parameters),
            "parameters_bargaining": dict(self.bargaining.point.parameters),
        }
