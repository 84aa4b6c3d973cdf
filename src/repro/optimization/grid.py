"""Exhaustive grid search.

The MAC parameter spaces are one- or two-dimensional boxes, so a dense grid
is both affordable and an excellent robustness baseline: it cannot be fooled
by local minima or by a badly scaled constraint, which makes it the seed and
the cross-check for the polish.

Every objective and margin maps an ``(n, dim)`` batch of points to ``(n,)``
values, so :func:`grid_search` evaluates the whole grid in one call of
each.  Its skip/tie-break/violation semantics are those of a point-by-point
loop, replicated operation for operation, so it returns **bit-identical**
results to the reference loop in ``tests/grid_reference.py``;
``tests/optimization/test_grid_vectorized.py`` enforces this and
``benchmarks/bench_vectorized_grid.py`` records the speedup.

It also reports the grid's distinct feasible *local minima* — the seeds the
hybrid solver polishes; those of the violation when no point is feasible —
through one rule (:func:`_local_minima`), which the reference shares.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.core.parameters import ParameterSpace
from repro.exceptions import SolverError
from repro.optimization.result import SolverResult

#: Signature of an objective: maps an ``(n, dim)`` batch of solver-ordered
#: points to their ``(n,)`` values.
Objective = Callable[[np.ndarray], np.ndarray]
#: Signature of a constraint margin, batched alike: ``>= 0`` means satisfied.
Constraint = Callable[[np.ndarray], np.ndarray]

#: Slack a grid point's margins may have and still count as feasible.
FEASIBILITY_TOLERANCE = 1e-9

#: Error message when no grid point evaluates to a finite objective.
_NO_FINITE_POINT = "grid search found no grid point with a finite objective value"


def _local_minima(
    points: np.ndarray, signed: np.ndarray, shape: Tuple[int, ...]
) -> Tuple[np.ndarray, ...]:
    """The grid's distinct local minima of ``signed``, best first.

    Args:
        points: The ``(n, dim)`` grid in :meth:`ParameterSpace.grid` order.
        signed: ``(n,)`` objective in minimization sense (or violation),
            ``inf`` wherever the point is skipped (or infeasible).
        shape: Points along each axis (row-major), ``prod(shape) == n``.

    A point is a local minimum when it beats every neighbour of its
    ``3**dim - 1`` neighbourhood, comparing ``(value, grid index)`` so a
    plateau of exact ties yields the point the scan meets first rather than
    all of them.  Sorting by the same key puts the grid's best feasible
    point first.
    """
    values = signed.reshape(shape)
    padded = np.pad(values, 1, constant_values=np.inf)
    minimum = np.isfinite(values)
    for offset in itertools.product((-1, 0, 1), repeat=len(shape)):
        if not any(offset):
            continue
        window = tuple(slice(1 + step, 1 + step + size) for step, size in zip(offset, shape))
        neighbour = padded[window]
        # In row-major order the neighbour comes later exactly when the
        # first non-zero step is positive; a tie then goes to this point.
        later = next(step for step in offset if step) > 0
        minimum &= values <= neighbour if later else values < neighbour
    indices = np.flatnonzero(minimum)
    indices = indices[np.argsort(signed[indices], kind="stable")]
    return tuple(points[index] for index in indices)


def _grid(space: ParameterSpace, points_per_dimension: int) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """The ``(n, dim)`` grid and its per-axis point counts (row-major)."""
    points = space.grid(points_per_dimension)
    return points, tuple(axis.size for axis in space.axes(points_per_dimension))


def grid_search(
    objective: Objective,
    space: ParameterSpace,
    constraints: Sequence[Constraint] = (),
    points_per_dimension: int = 200,
    maximize: bool = False,
) -> SolverResult:
    """Minimize (or maximize) an objective over a full-factorial grid.

    Args:
        objective: Objective of a batch of solver-ordered points, called
            once with the whole grid.
        space: The admissible box.
        constraints: Margin functions, batched alike; a point is feasible
            when every margin is ``>= -FEASIBILITY_TOLERANCE``.
        points_per_dimension: Grid resolution along each axis.
        maximize: Maximize instead of minimize.

    Returns:
        The best *feasible* grid point if one exists; otherwise the point of
        least violation, flagged as infeasible.  ``local_minima`` holds the
        grid's distinct feasible local minima, best first — or, when no
        point is feasible, the distinct local minima of the violation, least
        first.

    Raises:
        SolverError: if every grid point evaluates to a non-finite objective.
    """
    # A point-by-point loop (a) skips points where any margin is
    # non-finite, (b) skips points with a non-finite objective, (c) prefers
    # feasible points, then smaller signed objective, then — among
    # infeasible points — smaller violation, keeping the *first* optimum on
    # exact ties.  ``np.argmin`` returns the first minimizing index, which
    # reproduces that loop's strict-``<`` incumbent updates exactly.
    sign = -1.0 if maximize else 1.0
    points, shape = _grid(space, points_per_dimension)
    total = points.shape[0]
    violation = np.zeros(total)
    margins_finite = np.ones(total, dtype=bool)
    for constraint in constraints:
        margins = np.asarray(constraint(points), dtype=float).reshape(total)
        margins_finite &= np.isfinite(margins)
        violation = np.maximum(violation, -margins)
    raw = np.asarray(objective(points), dtype=float).reshape(total)
    valid = margins_finite & np.isfinite(raw)
    if not bool(valid.any()):
        raise SolverError(_NO_FINITE_POINT)

    feasible_mask = valid & (violation <= FEASIBILITY_TOLERANCE)
    feasible_signed = np.where(feasible_mask, sign * raw, np.inf)
    if bool(feasible_mask.any()):
        best_index = int(np.argmin(feasible_signed))
        feasible = True
    else:
        best_index = int(np.argmin(np.where(valid, violation, np.inf)))
        feasible = False
    return SolverResult(
        x=points[best_index],
        value=float(raw[best_index]),
        feasible=feasible,
        method="grid",
        evaluations=total,
        constraint_violation=float(violation[best_index]),
        message=f"{total} grid points evaluated",
        local_minima=_local_minima(
            points, feasible_signed if feasible else np.where(valid, violation, np.inf), shape
        ),
    )
