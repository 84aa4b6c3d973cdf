"""Shared helpers for the benchmark harness.

Every paper figure (and each ablation) has one benchmark per sub-plot.  The
benches use ``benchmark.pedantic(..., rounds=1, iterations=1)``: the solves
are deterministic, so a single round both times the reproduction and keeps
the whole harness fast enough to run routinely.  Each bench prints the same
rows/series the paper plots, and asserts the qualitative claims (who wins,
which way the trade-off point moves) so a regression in the models or the
solver fails the harness instead of silently changing the story.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro.analysis.reporting import format_table
from repro.api import ResultSet
from repro.core.results import GameSolution

#: ``tests/`` holds the references the benches time the production code
#: against: the scalar simulator (``scalar_reference``) for
#: ``bench_simulator.py`` and the point-by-point grid search
#: (``grid_reference``) for ``bench_vectorized_grid.py``; pytest puts it on
#: the path only for the test suite.
_TESTS_DIR = str(Path(__file__).resolve().parents[1] / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)

#: Solver grid used by the figure benches (coarser than the library default;
#: the polish makes the final optima identical to within tolerance).
#: ``REPRO_BENCH_GRID`` overrides it, so CI can run a reduced-size smoke
#: pass of the same benches.
BENCH_GRID = int(os.environ.get("REPRO_BENCH_GRID", "48"))

#: Worker processes used by the parallel-speedup benches.
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))

#: Set ``REPRO_ASSERT_SPEEDUP=1`` to make the speedup benches *fail* below
#: this ratio (meaningful only on a multi-core runner; plain timing is
#: always printed).
SPEEDUP_FLOOR = 1.5


def assert_speedup_if_required(speedup: float) -> None:
    """Enforce the speedup floor when the environment opts in."""
    if os.environ.get("REPRO_ASSERT_SPEEDUP") == "1":
        assert speedup > SPEEDUP_FLOOR, (
            f"parallel speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
        )


def print_series(title: str, rows) -> None:
    """Print a labelled series table below the benchmark output."""
    print(f"\n=== {title} ===")
    print(format_table(rows))


def solutions_by_protocol(result: ResultSet) -> Dict[str, List[GameSolution]]:
    """A figure run's game solutions per protocol, in sweep order."""
    series: Dict[str, List[GameSolution]] = {}
    for record in result.ok_records:
        series.setdefault(record.unit.protocol, []).append(record.value)
    return series


@pytest.fixture(scope="session")
def figure_grid() -> int:
    """Grid resolution shared by the figure benches."""
    return BENCH_GRID


@pytest.fixture(scope="session")
def bench_workers() -> int:
    """Worker count shared by the parallel-speedup benches."""
    return BENCH_WORKERS
