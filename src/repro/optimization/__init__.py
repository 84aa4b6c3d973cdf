"""Numerical optimization substrate.

The paper's problems (P1), (P2) and (P4) are small constrained non-linear
programs over the MAC parameter box.  This subpackage provides the solvers
the core framework uses:

* :mod:`repro.optimization.result` — the common :class:`SolverResult` record.
* :mod:`repro.optimization.grid` — exhaustive grid search (robust, derivative
  free; reports the grid's distinct feasible local minima, which seed the
  polish), evaluated whole-grid for objectives carrying :func:`batched`
  twins; :func:`grid_search_scalar` is the point-by-point reference.
* :mod:`repro.optimization.lines` — the NumPy line-search polish.
* :mod:`repro.optimization.hybrid` — the grid, then the polish of its best
  local minima: the default solver.
* :mod:`repro.optimization.scalarization` — weighted-sum scalarization of the
  two objectives (used for Pareto frontier extraction and ablations).
* :mod:`repro.optimization.convexity` — numerical convexity and
  quasi-concavity probes backing the paper's uniqueness argument.
"""

from repro.optimization.result import SolverResult
from repro.optimization.grid import batched, grid_search, grid_search_scalar
from repro.optimization.lines import polish
from repro.optimization.hybrid import hybrid_solve
from repro.optimization.scalarization import weighted_sum_scan
from repro.optimization.convexity import (
    is_convex_on_grid,
    is_quasiconcave_on_segment,
    sample_hessian_definiteness,
)

__all__ = [
    "SolverResult",
    "batched",
    "grid_search",
    "grid_search_scalar",
    "polish",
    "hybrid_solve",
    "weighted_sum_scan",
    "is_convex_on_grid",
    "is_quasiconcave_on_segment",
    "sample_hessian_definiteness",
]
