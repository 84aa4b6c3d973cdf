"""Exhaustive grid search.

The MAC parameter spaces are one- or two-dimensional boxes, so a dense grid
is both affordable and an excellent robustness baseline: it cannot be fooled
by local minima or by a badly scaled constraint, which makes it the seed and
the cross-check for the gradient-based solver.

Two evaluation paths share one selection rule:

* :func:`grid_search` evaluates the whole grid in a handful of NumPy calls
  whenever the objective and every constraint expose a batched twin (a
  ``.many(points)`` attribute, attached with :func:`batched`), and falls
  back to the scalar loop otherwise;
* :func:`grid_search_scalar` loops over the grid calling the objective and
  the constraint margins point by point — the named reference.

The batched path replicates the scalar path's skip/tie-break/violation
semantics operation for operation, so the two return **bit-identical**
results; ``tests/optimization/test_grid_vectorized.py`` enforces this and
``benchmarks/bench_vectorized_grid.py`` records the speedup.

Both paths also report the grid's distinct feasible *local minima* — the
seeds the hybrid solver polishes — through one shared rule
(:func:`_local_minima`) applied to the values they collected.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.parameters import ParameterSpace
from repro.exceptions import SolverError
from repro.optimization.result import SolverResult

#: Signature of an objective: maps a solver-ordered array to a scalar.
Objective = Callable[[np.ndarray], float]
#: Signature of a constraint margin: ``>= 0`` means satisfied.
Constraint = Callable[[np.ndarray], float]
#: Signature of a batched twin: maps an ``(n, dim)`` grid to ``(n,)`` values.
BatchedFunction = Callable[[np.ndarray], np.ndarray]

#: Error message shared by both evaluation paths when nothing evaluates.
_NO_FINITE_POINT = "grid search found no grid point with a finite objective value"


def batched(scalar: Callable[[np.ndarray], float], many: BatchedFunction) -> Objective:
    """Attach a batched twin to a scalar objective or constraint.

    Args:
        scalar: The per-point callable the solvers use (e.g. a bound
            ``model.system_energy``).
        many: Its batched twin mapping an ``(n, dim)`` grid to an ``(n,)``
            array, expected to be bit-identical to calling ``scalar`` per row.

    Returns:
        A wrapper that forwards per-point calls to ``scalar`` and carries
        ``many`` as a ``.many`` attribute, which :func:`grid_search`
        detects.  (A plain attribute cannot be set on a bound method,
        hence the wrapper.)
    """

    @functools.wraps(scalar, assigned=("__doc__",), updated=())
    def wrapper(x: np.ndarray) -> float:
        return scalar(x)

    wrapper.many = many  # type: ignore[attr-defined]
    wrapper.scalar = scalar  # type: ignore[attr-defined]
    return wrapper


def _batched_twin(function: Callable) -> Optional[BatchedFunction]:
    """The ``.many`` twin of an objective/constraint, or ``None``."""
    return getattr(function, "many", None)


def _violation(constraints: Sequence[Constraint], point: np.ndarray) -> float:
    """Largest constraint violation at ``point`` (0 when all satisfied)."""
    worst = 0.0
    for constraint in constraints:
        margin = float(constraint(point))
        if not np.isfinite(margin):
            return float("inf")
        worst = max(worst, -margin)
    return worst


def _local_minima(
    points: np.ndarray, signed: np.ndarray, shape: Tuple[int, ...]
) -> Tuple[np.ndarray, ...]:
    """The grid's distinct feasible local minima, best first.

    Args:
        points: The ``(n, dim)`` grid in :meth:`ParameterSpace.grid` order.
        signed: ``(n,)`` objective in minimization sense, ``inf`` wherever
            the point is skipped or infeasible.
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
    shape = tuple(parameter.sample_grid(points_per_dimension).size for parameter in space)
    return points, shape


def grid_search_scalar(
    objective: Objective,
    space: ParameterSpace,
    constraints: Sequence[Constraint] = (),
    points_per_dimension: int = 200,
    maximize: bool = False,
    feasibility_tolerance: float = 1e-9,
) -> SolverResult:
    """Point-by-point reference implementation of :func:`grid_search`.

    Takes the same arguments and returns the same result; it ignores any
    batched ``.many`` twins, so the equivalence tests and the benchmarks
    can hold the batched path against it.
    """
    sign = -1.0 if maximize else 1.0
    points, shape = _grid(space, points_per_dimension)
    best: Optional[SolverResult] = None
    evaluations = 0
    feasible_signed = np.full(points.shape[0], np.inf)
    for index, point in enumerate(points):
        evaluations += 1
        violation = _violation(constraints, point)
        if not np.isfinite(violation):
            continue
        raw = float(objective(point))
        if not np.isfinite(raw):
            continue
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
        local_minima=_local_minima(points, feasible_signed, shape),
    )


def grid_search(
    objective: Objective,
    space: ParameterSpace,
    constraints: Sequence[Constraint] = (),
    points_per_dimension: int = 200,
    maximize: bool = False,
    feasibility_tolerance: float = 1e-9,
) -> SolverResult:
    """Minimize (or maximize) an objective over a full-factorial grid.

    Args:
        objective: Scalar objective of a solver-ordered parameter array.
            When it (and every constraint) carries a batched ``.many`` twin
            — see :func:`batched` — the whole grid is evaluated in a few
            NumPy calls; otherwise :func:`grid_search_scalar` loops over it.
        space: The admissible box.
        constraints: Margin functions; a point is feasible when every margin
            is ``>= -feasibility_tolerance``.
        points_per_dimension: Grid resolution along each axis.
        maximize: Maximize instead of minimize.
        feasibility_tolerance: Slack allowed on constraint margins.

    Returns:
        The best *feasible* grid point if one exists; otherwise the point of
        least violation, flagged as infeasible.  ``local_minima`` holds the
        grid's distinct feasible local minima, best first (empty when no
        point is feasible).  Both evaluation paths return bit-identical
        results.

    Raises:
        SolverError: if every grid point evaluates to a non-finite objective.
    """
    if _batched_twin(objective) is None or any(
        _batched_twin(constraint) is None for constraint in constraints
    ):
        return grid_search_scalar(
            objective, space, constraints, points_per_dimension, maximize, feasibility_tolerance
        )
    # Batched path.  The scalar loop (a) skips points where any margin is
    # non-finite, (b) skips points with a non-finite objective, (c) prefers
    # feasible points, then smaller signed objective, then — among
    # infeasible points — smaller violation, keeping the *first* optimum on
    # exact ties.  ``np.argmin`` returns the first minimizing index, which
    # reproduces the strict-``<`` incumbent updates of
    # :meth:`SolverResult.better_than` exactly.
    sign = -1.0 if maximize else 1.0
    points, shape = _grid(space, points_per_dimension)
    total = points.shape[0]
    violation = np.zeros(total)
    margins_finite = np.ones(total, dtype=bool)
    for constraint in constraints:
        margins = np.asarray(_batched_twin(constraint)(points), dtype=float).reshape(total)
        margins_finite &= np.isfinite(margins)
        violation = np.maximum(violation, -margins)
    raw = np.asarray(_batched_twin(objective)(points), dtype=float).reshape(total)
    valid = margins_finite & np.isfinite(raw)
    if not bool(valid.any()):
        raise SolverError(_NO_FINITE_POINT)

    feasible_mask = valid & (violation <= feasibility_tolerance)
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
        local_minima=_local_minima(points, feasible_signed, shape),
    )
