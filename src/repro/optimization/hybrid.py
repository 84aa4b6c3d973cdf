"""Grid-seeded SLSQP: the library's default solver.

A coarse grid scan locates the basin of the global optimum (the MAC energy
curves are cheap to evaluate and only one- or two-dimensional), then SLSQP
polishes the best grid point to high precision.  A plain multi-start SLSQP
run is used as a cross-check: whichever of the two is better (feasible and
lower objective) is returned, so the hybrid is never worse than either
component.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.parameters import ParameterSpace
from repro.optimization.constrained import multistart_slsqp, slsqp_solve
from repro.optimization.grid import Constraint, Objective, grid_search
from repro.optimization.result import SolverResult
from repro.exceptions import SolverError


def hybrid_solve(
    objective: Objective,
    space: ParameterSpace,
    constraints: Sequence[Constraint] = (),
    maximize: bool = False,
    grid_points_per_dimension: int = 120,
    random_starts: int = 6,
    seed: int = 0,
    feasibility_tolerance: float = 1e-7,
    vectorize: Optional[bool] = None,
) -> SolverResult:
    """Grid scan, polish the winner with SLSQP, cross-check with multi-start.

    Returns the best feasible result found by any stage; if no stage finds a
    feasible point, the least-violating point is returned (flagged
    infeasible) so callers can distinguish "requirements cannot be met" from
    "solver crashed".

    ``vectorize`` is forwarded to :func:`~repro.optimization.grid.grid_search`:
    ``None`` auto-uses the batched evaluation path when the objective and
    constraints carry ``.many`` twins, ``False`` forces the scalar loop.
    Either way the result is bit-identical; only the wall clock changes.
    """
    comparison_sign = -1.0 if maximize else 1.0
    candidates = []

    grid_result: Optional[SolverResult] = None
    try:
        grid_result = grid_search(
            objective,
            space,
            constraints,
            points_per_dimension=grid_points_per_dimension,
            maximize=maximize,
            vectorize=vectorize,
        )
        candidates.append(grid_result)
    except SolverError:
        grid_result = None

    if grid_result is not None:
        try:
            polished = slsqp_solve(
                objective,
                space,
                constraints,
                start=np.asarray(grid_result.x, dtype=float),
                maximize=maximize,
                feasibility_tolerance=feasibility_tolerance,
            )
            candidates.append(polished)
        except SolverError:
            pass

    try:
        multistart = multistart_slsqp(
            objective,
            space,
            constraints,
            maximize=maximize,
            random_starts=random_starts,
            seed=seed,
            feasibility_tolerance=feasibility_tolerance,
        )
        candidates.append(multistart)
    except SolverError:
        pass

    if not candidates:
        raise SolverError("hybrid solver: every stage failed to produce a result")

    best: Optional[SolverResult] = None
    total_evaluations = 0
    for candidate in candidates:
        total_evaluations += candidate.evaluations
        flipped = SolverResult(
            x=candidate.x,
            value=comparison_sign * candidate.value,
            feasible=candidate.feasible,
            method=candidate.method,
            evaluations=candidate.evaluations,
            message=candidate.message,
            constraint_violation=candidate.constraint_violation,
        )
        incumbent = None
        if best is not None:
            incumbent = SolverResult(
                x=best.x,
                value=comparison_sign * best.value,
                feasible=best.feasible,
                method=best.method,
                evaluations=best.evaluations,
                message=best.message,
                constraint_violation=best.constraint_violation,
            )
        if flipped.better_than(incumbent):
            best = candidate

    assert best is not None  # candidates is non-empty
    return SolverResult(
        x=best.x,
        value=best.value,
        feasible=best.feasible,
        method=f"hybrid({best.method})",
        evaluations=total_evaluations,
        message=best.message,
        constraint_violation=best.constraint_violation,
    )
