"""Gradient-based constrained optimization (SLSQP) with multi-start.

SciPy's SLSQP handles the smooth inequality-constrained programs (P1), (P2)
and (P4) directly.  Because SLSQP is a local method and the energy models can
have steep ``1/x`` terms near the lower bounds, the public entry point runs
it from several starting points (box midpoint, corners biased toward each
bound, and random interior points) and keeps the best feasible outcome.

SciPy is imported by the first descent, not with this module, so a run that
never polishes (planning, validation, warm replays) never loads it.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.core.parameters import ParameterSpace
from repro.exceptions import SolverError
from repro.optimization.grid import Constraint, Objective, _violation
from repro.optimization.result import SolverResult


def load_solver_backend() -> None:
    """Import SciPy's optimizer now rather than at the first descent.

    A process about to fork pool workers for pending solves calls this, so
    every worker inherits the loaded module instead of importing it again.
    """
    import scipy.optimize  # noqa: F401


def slsqp_solve(
    objective: Objective,
    space: ParameterSpace,
    constraints: Sequence[Constraint] = (),
    start: Optional[np.ndarray] = None,
    maximize: bool = False,
    feasibility_tolerance: float = 1e-7,
    max_iterations: int = 400,
) -> SolverResult:
    """Run a single SLSQP descent from ``start`` (default: box midpoint).

    The objective is wrapped so that a non-finite value becomes a large
    penalty, which keeps SLSQP from aborting when it probes the boundary of
    the admissible region; the constraint margins reach SciPy unchanged.
    The objective SciPy sees is divided by its magnitude at the start point
    (1 when that is zero or non-finite): SLSQP's ``ftol`` is absolute, so an
    objective of order 1e-5 J/s would otherwise count as converged at the
    start.

    All margins go to SciPy as one vector-valued inequality constraint, so
    each iteration builds their Jacobian in one finite-difference pass
    rather than one per margin.  The steps and the per-column arithmetic are
    the same either way, so the Jacobian rows are bit-identical.
    """
    from scipy import optimize

    sign = -1.0 if maximize else 1.0
    start_point = space.midpoint() if start is None else space.clip(start)

    scale = abs(float(objective(start_point)))
    if not math.isfinite(scale) or scale == 0.0:
        scale = 1.0
    evaluation_counter = {"count": 1}

    def safe_objective(point: np.ndarray) -> float:
        evaluation_counter["count"] += 1
        value = float(objective(np.asarray(point, dtype=float)))
        if not math.isfinite(value):
            return 1e30
        return sign * value / scale

    def margins(point: np.ndarray) -> np.ndarray:
        point = np.asarray(point, dtype=float)
        return np.array([float(constraint(point)) for constraint in constraints])

    scipy_constraints = [{"type": "ineq", "fun": margins}] if constraints else []

    try:
        outcome = optimize.minimize(
            safe_objective,
            x0=np.asarray(start_point, dtype=float),
            method="SLSQP",
            bounds=space.bounds,
            constraints=scipy_constraints,
            options={"maxiter": max_iterations, "ftol": 1e-12},
        )
    except (ValueError, FloatingPointError) as exc:  # pragma: no cover - scipy internal
        raise SolverError(f"SLSQP failed: {exc}") from exc

    point = space.clip(np.asarray(outcome.x, dtype=float))
    violation = _violation(constraints, point)
    value = float(objective(point))
    if not math.isfinite(value):
        raise SolverError("SLSQP converged to a point with a non-finite objective")
    return SolverResult(
        x=point,
        value=value,
        feasible=violation <= feasibility_tolerance,
        method="slsqp",
        evaluations=evaluation_counter["count"],
        message=str(outcome.message),
        constraint_violation=violation,
    )


def multistart_slsqp(
    objective: Objective,
    space: ParameterSpace,
    constraints: Sequence[Constraint] = (),
    maximize: bool = False,
    starts: Optional[Sequence[np.ndarray]] = None,
    random_starts: int = 8,
    seed: int = 0,
    feasibility_tolerance: float = 1e-7,
) -> SolverResult:
    """Run SLSQP from several starting points and keep the best result.

    The default start set is the box midpoint, points biased toward the lower
    and upper bounds (where the 1/x-shaped energy terms have their extremes),
    and ``random_starts`` uniform interior points.
    """
    if starts is None:
        lower = space.lower_bounds
        upper = space.upper_bounds
        span = upper - lower
        starts = [
            space.midpoint(),
            lower + 0.05 * span,
            upper - 0.05 * span,
            lower + 0.25 * span,
            upper - 0.25 * span,
        ]
        if random_starts > 0:
            starts = list(starts) + list(space.random_points(random_starts, seed=seed))

    best: Optional[SolverResult] = None
    total_evaluations = 0
    failures: List[str] = []
    comparison_sign = -1.0 if maximize else 1.0
    for start in starts:
        try:
            result = slsqp_solve(
                objective,
                space,
                constraints,
                start=np.asarray(start, dtype=float),
                maximize=maximize,
                feasibility_tolerance=feasibility_tolerance,
            )
        except SolverError as exc:
            failures.append(str(exc))
            continue
        total_evaluations += result.evaluations
        # ``better_than`` compares in minimization sense, so flip the value
        # when maximizing before comparing and flip back when storing.
        candidate = SolverResult(
            x=result.x,
            value=comparison_sign * result.value,
            feasible=result.feasible,
            method=result.method,
            evaluations=result.evaluations,
            message=result.message,
            constraint_violation=result.constraint_violation,
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
        if candidate.better_than(incumbent):
            best = result
    if best is None:
        raise SolverError(
            "all SLSQP starts failed: " + "; ".join(failures[:3]) if failures else "no starts"
        )
    return SolverResult(
        x=best.x,
        value=best.value,
        feasible=best.feasible,
        method="multistart-slsqp",
        evaluations=total_evaluations,
        message=best.message,
        constraint_violation=best.constraint_violation,
    )
