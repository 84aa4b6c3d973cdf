"""The grid search's point-by-point reference.

:func:`repro.optimization.grid.grid_search` evaluates a whole grid in one
call of each batch function.  :func:`grid_search_scalar` takes scalar
functions — each maps one point to one value — with the same remaining
arguments and returns the same result by looping over the grid, calling
the objective and the constraint margins one point at a time and keeping
the incumbent by its own rule (:func:`_better`).
``tests/optimization/test_grid_vectorized.py`` and
``benchmarks/bench_vectorized_grid.py`` hold the production path to it bit
for bit, down to the local minima it reports, handing each side its own
form of the same functions.

pytest puts ``tests/`` on ``sys.path`` (``tests/conftest.py``), and
``benchmarks/conftest.py`` does the same for the benches, so this module is
imported as ``grid_reference``.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.parameters import ParameterSpace
from repro.core.problems import (
    DelayMinimizationProblem,
    EnergyMinimizationProblem,
    NashBargainingProblem,
)
from repro.exceptions import SolverError
from repro.optimization.grid import _NO_FINITE_POINT, _grid, _local_minima
from repro.optimization.result import SolverResult

#: A scalar objective or margin: one solver-ordered point to one value.
ScalarFunction = Callable[[np.ndarray], float]


def scalar_forms(problem) -> Tuple[ScalarFunction, List[ScalarFunction]]:
    """The objective and margins of a (P1), (P2) or (P4) problem, one point
    at a time, from its model's scalar methods (and libm's ``math.log``)."""
    model, requirements = problem.model, problem.requirements
    energy, latency, capacity = model.system_energy, model.system_latency, model.capacity_margin
    if isinstance(problem, EnergyMinimizationProblem):
        return energy, [lambda x: requirements.max_delay - latency(x), capacity]
    if isinstance(problem, DelayMinimizationProblem):
        return latency, [lambda x: requirements.energy_budget - energy(x), capacity]
    assert isinstance(problem, NashBargainingProblem)
    energy_worst, delay_worst = problem.disagreement
    floor = NashBargainingProblem._LOG_FLOOR  # noqa: SLF001 - the reference pins it

    def objective(x: np.ndarray) -> float:
        return math.log(max(energy_worst - energy(x), floor * energy_worst)) + math.log(
            max(delay_worst - latency(x), floor * delay_worst)
        )

    budget = min(requirements.energy_budget, energy_worst)
    delay_cap = min(requirements.max_delay, delay_worst)
    return objective, [lambda x: budget - energy(x), lambda x: delay_cap - latency(x), capacity]


def _violation(constraints: Sequence[ScalarFunction], point: np.ndarray) -> float:
    """Largest constraint violation at ``point`` (0 when all satisfied)."""
    worst = 0.0
    for constraint in constraints:
        margin = float(constraint(point))
        if not math.isfinite(margin):
            return float("inf")
        worst = max(worst, -margin)
    return worst


def _better(candidate: SolverResult, incumbent: Optional[SolverResult]) -> bool:
    """Whether ``candidate`` replaces ``incumbent``: feasibility first, then
    the smaller objective (or, both infeasible, the smaller violation)."""
    if incumbent is None:
        return True
    if candidate.feasible != incumbent.feasible:
        return candidate.feasible
    if candidate.feasible:
        return candidate.value < incumbent.value
    return candidate.constraint_violation < incumbent.constraint_violation


def grid_search_scalar(
    objective: ScalarFunction,
    space: ParameterSpace,
    constraints: Sequence[ScalarFunction] = (),
    points_per_dimension: int = 200,
    maximize: bool = False,
    feasibility_tolerance: float = 1e-9,
) -> SolverResult:
    """Point-by-point reference implementation of ``grid_search``."""
    sign = -1.0 if maximize else 1.0
    points, shape = _grid(space, points_per_dimension)
    best: Optional[SolverResult] = None
    evaluations = 0
    feasible_signed = np.full(points.shape[0], np.inf)
    violations = np.full(points.shape[0], np.inf)
    for index, point in enumerate(points):
        evaluations += 1
        violation = _violation(constraints, point)
        if not np.isfinite(violation):
            continue
        raw = float(objective(point))
        if not np.isfinite(raw):
            continue
        violations[index] = violation
        if violation <= feasibility_tolerance:
            feasible_signed[index] = sign * raw
        candidate = SolverResult(
            x=point,
            value=sign * raw,
            feasible=violation <= feasibility_tolerance,
            method="grid",
            evaluations=evaluations,
            constraint_violation=violation,
        )
        if _better(candidate, best):
            best = candidate
    if best is None:
        raise SolverError(_NO_FINITE_POINT)
    return SolverResult(
        x=best.x,
        value=sign * best.value if maximize else best.value,
        feasible=best.feasible,
        method="grid",
        evaluations=evaluations,
        constraint_violation=best.constraint_violation,
        message=f"{points.shape[0]} grid points evaluated",
        local_minima=_local_minima(points, feasible_signed if best.feasible else violations, shape),
    )
