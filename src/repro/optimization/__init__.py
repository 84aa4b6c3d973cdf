"""Numerical optimization substrate.

The paper's problems (P1), (P2) and (P4) are small constrained non-linear
programs over the MAC parameter box.  This subpackage provides the solvers
the core framework uses:

* :mod:`repro.optimization.result` — the common :class:`SolverResult` record.
* :mod:`repro.optimization.grid` — exhaustive grid search (robust, derivative
  free; reports the grid's distinct feasible local minima, which seed the
  polish), evaluated whole-grid for objectives carrying :func:`batched`
  twins.
* :mod:`repro.optimization.lines` — the NumPy line-search polish.
* :mod:`repro.optimization.hybrid` — the grid, then the polish of its best
  local minima: the default solver.
"""

from repro.optimization.result import SolverResult
from repro.optimization.grid import batched, grid_search
from repro.optimization.lines import polish
from repro.optimization.hybrid import hybrid_solve

__all__ = [
    "SolverResult",
    "batched",
    "grid_search",
    "polish",
    "hybrid_solve",
]
