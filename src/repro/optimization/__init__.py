"""Numerical optimization substrate.

The paper's problems (P1), (P2) and (P4) are small constrained non-linear
programs over the MAC parameter box.  This subpackage provides the solvers
the core framework uses:

* :mod:`repro.optimization.result` — the common :class:`SolverResult` record.
* :mod:`repro.optimization.grid` — exhaustive grid search (robust, derivative
  free; reports the grid's distinct feasible local minima, which seed the
  polish).
* :mod:`repro.optimization.lines` — the NumPy line-search polish.
* :mod:`repro.optimization.hybrid` — the grid, then the polish of its best
  local minima: the default solver.

Every solver takes its objective and constraint margins as batch functions:
each maps an ``(n, dim)`` array of points to ``(n,)`` values, and the
solvers call each once per batch — the whole grid, a polish round, or the
one row of a reported point.
"""

from repro.optimization.result import SolverResult
from repro.optimization.grid import grid_search
from repro.optimization.lines import polish
from repro.optimization.hybrid import hybrid_solve

__all__ = [
    "SolverResult",
    "grid_search",
    "polish",
    "hybrid_solve",
]
