"""Reproduce the paper's Figure 1 and Figure 2 series.

Run with::

    python examples/reproduce_figures.py [--quick]

For every protocol (X-MAC, DMAC, LMAC) and every requirement value the script
prints the corner points ``(Ebest, Lworst)`` / ``(Eworst, Lbest)`` and the
Nash bargaining trade-off point ``(E*, L*)`` — the series plotted in the
paper's figures — and writes them to ``figure1.csv`` / ``figure2.csv``.
Each figure is one ``figure1``/``figure2`` spec run through ``repro.api``.
"""

from __future__ import annotations

import argparse
from typing import Dict, List

from repro.analysis.reporting import format_table
from repro.api import ExperimentSpec, ResultSet, run


def _series(result: ResultSet, attribute: str) -> Dict[str, List[float]]:
    """One solution attribute per protocol, in sweep order."""
    series: Dict[str, List[float]] = {}
    for record in result.ok_records:
        series.setdefault(record.unit.protocol, []).append(getattr(record.value, attribute))
    return series


def _monotone(values: List[float]) -> bool:
    return all(later <= earlier + 1e-12 for earlier, later in zip(values, values[1:]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use a coarser solver grid and fewer sweep points (finishes in seconds)",
    )
    parser.add_argument("--output-prefix", default="figure", help="CSV output prefix")
    args = parser.parse_args()

    grid = 30 if args.quick else 60
    delay_bounds = (1.0, 3.0, 6.0) if args.quick else (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    energy_budgets = (0.01, 0.03, 0.06) if args.quick else (0.01, 0.02, 0.03, 0.04, 0.05, 0.06)

    print("=== Figure 1: E-L trade-off, Ebudget = 0.06 J, Lmax swept ===")
    figure1 = run(
        ExperimentSpec.experiment("figure1")
        .with_sweep("max_delay", delay_bounds)
        .with_solver(grid_points=grid)
    )
    print(format_table(figure1.rows()))
    path1 = figure1.to_csv(f"{args.output_prefix}1.csv")
    print(f"(wrote {path1})\n")

    print("=== Figure 2: E-L trade-off, Lmax = 6 s, Ebudget swept ===")
    figure2 = run(
        ExperimentSpec.experiment("figure2")
        .with_sweep("energy_budget", energy_budgets)
        .with_solver(grid_points=grid)
    )
    print(format_table(figure2.rows()))
    path2 = figure2.to_csv(f"{args.output_prefix}2.csv")
    print(f"(wrote {path2})\n")

    print("Qualitative checks (the paper's headline observations):")
    for name, stars in _series(figure1, "energy_star").items():
        print(
            f"  - {name}: relaxing Lmax moves the agreement toward the energy player: "
            f"{'yes' if _monotone(stars) else 'NO'}"
        )
    for name, stars in _series(figure2, "delay_star").items():
        print(
            f"  - {name}: raising Ebudget moves the agreement toward the delay player: "
            f"{'yes' if _monotone(stars) else 'NO'}"
        )


if __name__ == "__main__":
    main()
