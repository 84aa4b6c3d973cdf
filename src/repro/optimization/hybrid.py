"""Grid-seeded SLSQP: the library's default solver.

A grid scan locates the basins of the optimum (the MAC energy curves are
cheap to evaluate and only one- or two-dimensional), then SLSQP polishes the
best few of the grid's own local minima to high precision; whichever point
is better (feasible and lower objective) is returned, so the hybrid is never
worse than its grid.  Only when the grid holds no feasible point does a
blind multi-start SLSQP run join the polish, so an infeasibility verdict
still rests on every start the library knows.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.parameters import ParameterSpace
from repro.optimization.constrained import multistart_slsqp, slsqp_solve
from repro.optimization.grid import Constraint, Objective, grid_search
from repro.optimization.result import SolverResult
from repro.exceptions import SolverError

#: How many of the grid's local minima SLSQP polishes, best first.
POLISHED_MINIMA = 3


def hybrid_solve(
    objective: Objective,
    space: ParameterSpace,
    constraints: Sequence[Constraint] = (),
    maximize: bool = False,
    grid_points_per_dimension: int = 120,
    random_starts: int = 6,
    seed: int = 0,
    feasibility_tolerance: float = 1e-7,
) -> SolverResult:
    """Grid scan, then polish the grid's best local minima with SLSQP.

    Up to :data:`POLISHED_MINIMA` distinct feasible local minima of the
    grid are polished.  When the grid has no feasible point (or no finite
    one), its least-violating point is polished instead and
    :func:`~repro.optimization.constrained.multistart_slsqp` runs as well;
    ``random_starts`` and ``seed`` configure only that fallback.

    Returns the best feasible result found by any stage; if no stage finds a
    feasible point, the least-violating point is returned (flagged
    infeasible) so callers can distinguish "requirements cannot be met" from
    "solver crashed".
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
        )
        candidates.append(grid_result)
    except SolverError:
        grid_result = None

    if grid_result is None:
        starts = []
    elif grid_result.feasible:
        starts = list(grid_result.local_minima[:POLISHED_MINIMA])
    else:
        starts = [grid_result.x]
    for start in starts:
        try:
            polished = slsqp_solve(
                objective,
                space,
                constraints,
                start=start,
                maximize=maximize,
                feasibility_tolerance=feasibility_tolerance,
            )
            candidates.append(polished)
        except SolverError:
            pass

    if grid_result is None or not grid_result.feasible:
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
