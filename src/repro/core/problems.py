"""The paper's optimization problems (P1), (P2) and (P4).

Each problem class binds a protocol's analytical model to the application
requirements and exposes a ``solve`` method returning a structured outcome.
The decision variables are always the protocol's tunable parameters ``X``;
the auxiliary variables ``(E1, L1)`` of the paper's (P4) are eliminated
analytically (at the optimum ``E1 = E(X)`` and ``L1 = L(X)``), which leaves a
smooth box-constrained program that the solvers in
:mod:`repro.optimization` handle directly.  Each objective and margin is a
batch function: it maps an ``(n, dim)`` array of points to ``(n,)`` values.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.parameters import ParameterSpace
from repro.core.requirements import ApplicationRequirements
from repro.core.results import OptimizationOutcome, TradeoffPoint
from repro.exceptions import ConfigurationError, InfeasibleProblemError
from repro.optimization.grid import Constraint
from repro.optimization.hybrid import hybrid_solve
from repro.optimization.result import SolverResult
from repro.protocols.base import DutyCycledMACModel

#: Relative tolerance used to decide which constraint is binding at an optimum.
_BINDING_TOLERANCE = 1e-3


class GameEvaluations:
    """``E(X)``, ``L(X)`` and the capacity margin of one game's grid,
    evaluated once for the whole game.

    :class:`~repro.core.bargaining.NashBargainingSolver` makes one per game
    and hands it to (P1), (P2) and (P4), which then share the three arrays
    of the game's grid — the first batch of points any of its problems
    evaluates, which in the hybrid is (P1)'s grid scan — so (P2) and (P4)
    scan the same grid without evaluating it again.

    Later batches (polish rounds, a reported point's row) stay with the
    problem that evaluated them (see :class:`_ProblemBase`).  The memo dies
    with its game: nothing is reused across games.
    """

    def __init__(self, model: DutyCycledMACModel) -> None:
        self.model = model
        self.grid_key: Optional[bytes] = None
        self.grid_values: Dict[str, np.ndarray] = {}


class _ProblemBase:
    """Shared plumbing of the three optimization problems.

    ``E(X)``, ``L(X)`` and the capacity margin are read through one batch
    memo: the game's grid from its :class:`GameEvaluations` (the problem's
    own, unless a game shares one), and any other batch — a polish round, or
    the one row of the point a solver reports — shared by the problem's
    objective and margins, which a solver hands the same batch in turn,
    until the next batch.  The outcome then reads ``E``, ``L`` and the
    margin at the reported point from that row.  A shared batch result is
    read-only.
    """

    def __init__(
        self,
        model: DutyCycledMACModel,
        requirements: ApplicationRequirements,
        evaluations: Optional[GameEvaluations] = None,
    ) -> None:
        if not isinstance(model, DutyCycledMACModel):
            raise ConfigurationError(
                f"model must be a DutyCycledMACModel, got {type(model).__name__}"
            )
        if not isinstance(requirements, ApplicationRequirements):
            raise ConfigurationError(
                f"requirements must be ApplicationRequirements, got {type(requirements).__name__}"
            )
        if evaluations is None:
            evaluations = GameEvaluations(model)
        elif evaluations.model is not model:
            raise ConfigurationError("evaluations must be a memo of the problem's own model")
        self._model = model
        self._requirements = requirements
        self._game = evaluations
        self._batch: bytes = b""
        self._batch_values: Dict[str, np.ndarray] = {}

    @property
    def model(self) -> DutyCycledMACModel:
        """The protocol model the problem is defined over."""
        return self._model

    @property
    def requirements(self) -> ApplicationRequirements:
        """The application requirements of the problem."""
        return self._requirements

    @property
    def space(self) -> ParameterSpace:
        """The decision-variable box."""
        return self._model.parameter_space

    # ------------------------------------------------------------------ #
    # Memoized batch evaluations
    # ------------------------------------------------------------------ #

    def _shared_batch(
        self, name: str, evaluate: Callable[[np.ndarray], np.ndarray], points: np.ndarray
    ) -> np.ndarray:
        key = np.ascontiguousarray(points, dtype=float).tobytes()
        game = self._game
        if game.grid_key is None:
            game.grid_key = key
        if key == game.grid_key:
            memo = game.grid_values
        else:
            if key != self._batch:
                self._batch, self._batch_values = key, {}
            memo = self._batch_values
        values = memo.get(name)
        if values is None:
            values = memo[name] = np.asarray(evaluate(points), dtype=float)
            values.flags.writeable = False
        return values

    def _energy(self, points: np.ndarray) -> np.ndarray:
        return self._shared_batch("energy", self._model.energy_many, points)

    def _latency(self, points: np.ndarray) -> np.ndarray:
        return self._shared_batch("latency", self._model.latency_many, points)

    def _capacity_margin(self, points: np.ndarray) -> np.ndarray:
        return self._shared_batch("capacity", self._model.capacity_margin_many, points)

    def _at(self, batch: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> float:
        """``batch`` at the one point ``x``, read as a one-row batch."""
        return float(batch(np.reshape(x, (1, -1)))[0])

    def _point(self, x: np.ndarray) -> TradeoffPoint:
        return TradeoffPoint(
            parameters=self._model.coerce(x),
            energy=self._at(self._energy, x),
            delay=self._at(self._latency, x),
        )

    def _binding_constraint(self, x: np.ndarray) -> str:
        """Classify which constraint is active at the point ``x``."""
        model = self._model
        requirements = self._requirements
        energy = self._at(self._energy, x)
        delay = self._at(self._latency, x)
        space = model.parameter_space
        if delay >= requirements.max_delay * (1.0 - _BINDING_TOLERANCE):
            return "delay-bound"
        if energy >= requirements.energy_budget * (1.0 - _BINDING_TOLERANCE):
            return "energy-budget"
        if self._at(self._capacity_margin, x) <= _BINDING_TOLERANCE * model.max_utilization:
            return "capacity"
        lower = space.lower_bounds
        upper = space.upper_bounds
        span = np.where(upper > lower, upper - lower, 1.0)
        if np.any((x - lower) / span <= _BINDING_TOLERANCE) or np.any(
            (upper - x) / span <= _BINDING_TOLERANCE
        ):
            return "parameter-bound"
        return "interior"


class EnergyMinimizationProblem(_ProblemBase):
    """Problem (P1): minimize ``E(X)`` subject to ``L(X) <= Lmax``.

    The solution gives the energy player's best value ``Ebest`` and, at the
    same point, the delay ``Lworst`` that the delay player would have to
    accept if the energy player dictated the parameters.
    """

    name = "P1-energy"

    def constraints(self) -> List[Constraint]:
        """Inequality margins (``>= 0`` feasible): delay bound and capacity."""
        max_delay = self._requirements.max_delay
        return [lambda points: max_delay - self._latency(points), self._capacity_margin]

    def solve(self, **solver_options: object) -> OptimizationOutcome:
        """Solve (P1) with the hybrid and return the energy-optimal operating point.

        Raises:
            InfeasibleProblemError: if no admissible parameter vector meets
                the delay bound.
        """
        result = hybrid_solve(
            self._energy, self.space, self.constraints(), maximize=False, **solver_options
        )
        if not result.feasible:
            raise InfeasibleProblemError(
                f"{self._model.name}: no parameter setting achieves an end-to-end delay "
                f"below {self._requirements.max_delay:.3f}s "
                f"(violation {result.constraint_violation:.3g})"
            )
        return OptimizationOutcome(
            problem=self.name,
            point=self._point(result.x),
            feasible=True,
            solver=result.method,
            evaluations=result.evaluations,
            binding_constraint=self._binding_constraint(result.x),
        )


class DelayMinimizationProblem(_ProblemBase):
    """Problem (P2): minimize ``L(X)`` subject to ``E(X) <= Ebudget``.

    The solution gives the delay player's best value ``Lbest`` and, at the
    same point, the energy ``Eworst`` that the energy player would have to
    accept if the delay player dictated the parameters.
    """

    name = "P2-delay"

    def constraints(self) -> List[Constraint]:
        """Inequality margins (``>= 0`` feasible): energy budget and capacity."""
        budget = self._requirements.energy_budget
        return [lambda points: budget - self._energy(points), self._capacity_margin]

    def solve(self, **solver_options: object) -> OptimizationOutcome:
        """Solve (P2) with the hybrid and return the delay-optimal operating point.

        Raises:
            InfeasibleProblemError: if no admissible parameter vector meets
                the energy budget.
        """
        result = hybrid_solve(
            self._latency, self.space, self.constraints(), maximize=False, **solver_options
        )
        if not result.feasible:
            raise InfeasibleProblemError(
                f"{self._model.name}: no parameter setting keeps the energy consumption "
                f"below {self._requirements.energy_budget:.4f} J/s "
                f"(violation {result.constraint_violation:.3g})"
            )
        return OptimizationOutcome(
            problem=self.name,
            point=self._point(result.x),
            feasible=True,
            solver=result.method,
            evaluations=result.evaluations,
            binding_constraint=self._binding_constraint(result.x),
        )


class NashBargainingProblem(_ProblemBase):
    """Problem (P4): the concave reformulation of the Nash bargaining game.

    Maximizes ``log(Eworst - E(X)) + log(Lworst - L(X))`` subject to the
    application requirements and the disagreement bounds, where
    ``(Eworst, Lworst)`` is the disagreement point built from the solutions
    of (P1) and (P2).

    Args:
        model: Protocol analytical model.
        requirements: Application requirements ``(Ebudget, Lmax)``.
        disagreement_energy: ``Eworst`` (from (P2)).
        disagreement_delay: ``Lworst`` (from (P1)).
        evaluations: The game's shared memo (default: the problem's own).
    """

    name = "P4-nash-bargaining"

    #: Fraction of the disagreement value used as the numerical floor inside
    #: the logarithms (keeps the objective finite on the boundary).
    _LOG_FLOOR = 1e-12

    def __init__(
        self,
        model: DutyCycledMACModel,
        requirements: ApplicationRequirements,
        disagreement_energy: float,
        disagreement_delay: float,
        evaluations: Optional[GameEvaluations] = None,
    ) -> None:
        super().__init__(model, requirements, evaluations)
        if disagreement_energy <= 0 or disagreement_delay <= 0:
            raise ConfigurationError(
                "disagreement point must be strictly positive, got "
                f"({disagreement_energy!r}, {disagreement_delay!r})"
            )
        self._disagreement_energy = float(disagreement_energy)
        self._disagreement_delay = float(disagreement_delay)

    @property
    def disagreement(self) -> tuple[float, float]:
        """The disagreement point ``(Eworst, Lworst)``."""
        return (self._disagreement_energy, self._disagreement_delay)

    # ------------------------------------------------------------------ #
    # Objective and constraints
    # ------------------------------------------------------------------ #

    def objective(self, points: np.ndarray) -> np.ndarray:
        """``log(Eworst - E(X)) + log(Lworst - L(X))`` of every row of
        ``points``, with a numerical floor.

        ``E(X)``, ``L(X)``, the gains and the floors are vectorized.  The
        logarithms are libm's ``math.log``, mapped over each column in one
        C-level pass, because ``np.log`` is not guaranteed to round
        identically, and the solutions are pinned bit for bit.
        """
        energy_gains = self._disagreement_energy - self._energy(points)
        delay_gains = self._disagreement_delay - self._latency(points)
        return self._floored_logs(energy_gains, self._disagreement_energy) + self._floored_logs(
            delay_gains, self._disagreement_delay
        )

    def _floored_logs(self, gains: np.ndarray, disagreement: float) -> np.ndarray:
        floored = np.maximum(gains, self._LOG_FLOOR * disagreement)
        return np.fromiter(map(math.log, floored.tolist()), float, gains.size)

    def nash_product(self, x: np.ndarray) -> float:
        """The raw Nash product ``(Eworst - E(X)) (Lworst - L(X))`` (clipped at 0)."""
        energy_gain = max(0.0, self._disagreement_energy - self._at(self._energy, x))
        delay_gain = max(0.0, self._disagreement_delay - self._at(self._latency, x))
        return energy_gain * delay_gain

    def constraints(self) -> List[Constraint]:
        """Inequality margins of (P4): requirements, disagreement bounds, capacity."""
        budget = min(self._requirements.energy_budget, self._disagreement_energy)
        delay_cap = min(self._requirements.max_delay, self._disagreement_delay)
        return [
            lambda points: budget - self._energy(points),
            lambda points: delay_cap - self._latency(points),
            self._capacity_margin,
        ]

    def solve(self, **solver_options: object) -> tuple[TradeoffPoint, SolverResult]:
        """Solve (P4) with the hybrid and return the agreed operating point
        and solver detail.

        Raises:
            InfeasibleProblemError: if the feasible region is empty, which
                can only happen when the two single-objective solutions are
                inconsistent (e.g. the requirements changed between solves).
        """
        result = hybrid_solve(
            self.objective, self.space, self.constraints(), maximize=True, **solver_options
        )
        if not result.feasible:
            raise InfeasibleProblemError(
                f"{self._model.name}: the Nash bargaining problem has an empty feasible "
                f"region under disagreement point {self.disagreement}"
            )
        return self._point(result.x), result
