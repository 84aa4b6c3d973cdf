"""Common result record returned by every solver in :mod:`repro.optimization`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import SolverError


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one constrained optimization run.

    Attributes:
        x: The best point found, in solver (array) order.
        value: Objective value at ``x`` (always in the *minimization* sense
            used internally; callers that maximize negate before/after).
        feasible: Whether ``x`` satisfies all constraints within tolerance.
        method: Name of the solver that produced the result.
        evaluations: Number of objective evaluations spent.
        message: Free-form diagnostic from the solver.
        constraint_violation: Largest constraint violation at ``x`` (zero
            when feasible).
        local_minima: The distinct feasible local minima of a grid scan,
            best first (``x`` itself leads when the grid has a feasible
            point), or those of its violation when it has none; empty for
            every other solver.
    """

    x: np.ndarray
    value: float
    feasible: bool
    method: str
    evaluations: int = 0
    message: str = ""
    constraint_violation: float = 0.0
    local_minima: Tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).ravel())
        if not np.all(np.isfinite(self.x)):
            raise SolverError(f"solver produced a non-finite point: {self.x!r}")
        if not np.isfinite(self.value):
            raise SolverError(f"solver produced a non-finite objective value: {self.value!r}")
