"""The grid search's point-by-point reference.

:func:`repro.optimization.grid.grid_search` evaluates a whole grid in a few
array calls.  :func:`grid_search_scalar` takes the same arguments and
returns the same result by looping over the grid, calling the objective and
the constraint margins one point at a time and keeping the incumbent with
:meth:`~repro.optimization.result.SolverResult.better_than`; it ignores any
batched ``.many`` twins.  ``tests/optimization/test_grid_vectorized.py``
and ``benchmarks/bench_vectorized_grid.py`` hold the production path to it
bit for bit, down to the local minima it reports.

pytest puts ``tests/`` on ``sys.path`` (``tests/conftest.py``), and
``benchmarks/conftest.py`` does the same for the benches, so this module is
imported as ``grid_reference``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.parameters import ParameterSpace
from repro.exceptions import SolverError
from repro.optimization.grid import (
    _NO_FINITE_POINT,
    Constraint,
    Objective,
    _grid,
    _local_minima,
    _violation,
)
from repro.optimization.result import SolverResult


def grid_search_scalar(
    objective: Objective,
    space: ParameterSpace,
    constraints: Sequence[Constraint] = (),
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
        if candidate.better_than(best):
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
