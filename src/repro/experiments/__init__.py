"""The paper's evaluation grids.

* :mod:`repro.experiments.config` — the scenario and requirement grids of
  the paper's evaluation (Ebudget = 0.06 J, Lmax in 1..6 s, and vice versa).
  The ``figure1``/``figure2`` spec kinds of :mod:`repro.api` read them:
  Figure 1 fixes the energy budget and sweeps the delay bound, Figure 2
  fixes the delay bound and sweeps the energy budget.
"""

from repro.experiments.config import (
    FIGURE_DELAY_BOUNDS,
    FIGURE_ENERGY_BUDGETS,
    FIGURE_ENERGY_BUDGET_FIXED,
    FIGURE_MAX_DELAY_FIXED,
    figure_scenario,
)

__all__ = [
    "FIGURE_DELAY_BOUNDS",
    "FIGURE_ENERGY_BUDGETS",
    "FIGURE_ENERGY_BUDGET_FIXED",
    "FIGURE_MAX_DELAY_FIXED",
    "figure_scenario",
]
