"""Grid-seeded polish: the library's default solver.

A grid scan locates the basins of the optimum (the MAC energy curves are
cheap to evaluate and only one- or two-dimensional), then the NumPy polish
of :mod:`repro.optimization.lines` refines the best few of the grid's own
local minima — or, when no grid point is feasible, every local minimum of
the grid's violation, so an infeasibility verdict rests on more than one
start.  The better point is returned: the hybrid never trails its grid.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.parameters import ParameterSpace
from repro.exceptions import SolverError
from repro.optimization.grid import Constraint, Objective, grid_search
from repro.optimization.lines import polish as slsqp_solve
from repro.optimization.result import SolverResult

#: How many of the grid's feasible local minima the polish starts from, best first.
POLISHED_MINIMA = 3


def hybrid_solve(
    objective: Objective,
    space: ParameterSpace,
    constraints: Sequence[Constraint] = (),
    maximize: bool = False,
    grid_points_per_dimension: int = 120,
) -> SolverResult:
    """Grid scan, then polish the grid's best local minima (at most
    :data:`POLISHED_MINIMA`), each from its grid neighbours.

    The polish is called through this module's name ``slsqp_solve``, the
    attribute the end-to-end benchmark's tracer wraps to time the polish.
    If no point is feasible, the least-violating one is returned, flagged
    infeasible, so callers can tell "requirements cannot be met" from
    "solver crashed"; a :class:`SolverError` means no grid point has a
    finite objective value.
    """
    points = grid_points_per_dimension
    grid = grid_search(objective, space, constraints, points, maximize)
    starts = grid.local_minima[:POLISHED_MINIMA] if grid.feasible else grid.local_minima
    axes = space.axes(points)
    brackets = []
    for start in starts:
        index = [int(np.searchsorted(axis, value)) for axis, value in zip(axes, start)]
        lower = np.array([axis[max(i - 1, 0)] for axis, i in zip(axes, index)])
        upper = np.array([axis[min(i + 1, axis.size - 1)] for axis, i in zip(axes, index)])
        brackets.append((lower, upper))
    try:
        polished = slsqp_solve(objective, space, constraints, starts, brackets, maximize)
    except SolverError:
        polished = None
    sign = -1.0 if maximize else 1.0

    def rank(result: SolverResult) -> tuple:
        score = sign * result.value if result.feasible else result.constraint_violation
        return (not result.feasible, score)

    best = polished if polished is not None and rank(polished) < rank(grid) else grid
    return SolverResult(
        x=best.x,
        value=best.value,
        feasible=best.feasible,
        method=f"hybrid({best.method})",
        evaluations=grid.evaluations + (polished.evaluations if polished else 0),
        message=best.message,
        constraint_violation=best.constraint_violation,
    )
