"""The paper's figure claims, through the ``figure1``/``figure2`` spec kinds.

Reduced grids and sweeps keep these fast; the benches run the full grids.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.api import ExperimentSpec, ResultRecord, ResultSet, run
from repro.experiments.config import (
    FIGURE_DELAY_BOUNDS,
    FIGURE_ENERGY_BUDGETS,
    FIGURE_ENERGY_BUDGET_FIXED,
    FIGURE_MAX_DELAY_FIXED,
    figure_scenario,
)
from repro.runtime import build_runner

GRID = 30
PROTOCOLS = ("xmac", "dmac")
DELAYS = (1.0, 3.0, 6.0)
BUDGETS = (0.01, 0.03, 0.06)


def _run(kind: str, parameter: str, values) -> ResultSet:
    spec = (
        ExperimentSpec.experiment(kind)
        .with_protocols(*PROTOCOLS)
        .with_sweep(parameter, values)
        .with_solver(grid_points=GRID)
    )
    return run(spec, runner=build_runner(workers=1, use_cache=False))


def _by_protocol(result: ResultSet) -> Dict[str, List[ResultRecord]]:
    grouped: Dict[str, List[ResultRecord]] = {}
    for record in result.records:
        grouped.setdefault(record.unit.protocol, []).append(record)
    return grouped


@pytest.fixture(scope="module")
def figure1_result():
    return _run("figure1", "max_delay", DELAYS)


@pytest.fixture(scope="module")
def figure2_result():
    return _run("figure2", "energy_budget", BUDGETS)


class TestFigureConfig:
    def test_paper_grids(self):
        assert FIGURE_DELAY_BOUNDS == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert FIGURE_ENERGY_BUDGETS == (0.01, 0.02, 0.03, 0.04, 0.05, 0.06)
        assert FIGURE_ENERGY_BUDGET_FIXED == 0.06
        assert FIGURE_MAX_DELAY_FIXED == 6.0

    def test_figure_scenario_shape(self):
        scenario = figure_scenario()
        assert scenario.depth == 5
        assert scenario.density == 8
        assert scenario.sampling_period == 3600.0


class TestFigure1:
    def test_one_sweep_per_protocol(self, figure1_result):
        by_protocol = _by_protocol(figure1_result)
        assert list(by_protocol) == list(PROTOCOLS)
        for records in by_protocol.values():
            assert [record.row["max_delay"] for record in records] == list(DELAYS)
        assert not figure1_result.failed_records

    def test_relaxing_delay_bound_favours_energy_player(self, figure1_result):
        for records in _by_protocol(figure1_result).values():
            stars = [record.value.energy_star for record in records]
            assert stars[0] >= stars[1] >= stars[2]

    def test_agreed_delay_respects_each_bound(self, figure1_result):
        for records in _by_protocol(figure1_result).values():
            for bound, record in zip(DELAYS, records):
                assert record.value.delay_star <= bound * 1.001
                assert record.value.energy_budget == FIGURE_ENERGY_BUDGET_FIXED

    def test_rows_are_flat_and_complete(self, figure1_result):
        rows = figure1_result.rows()
        assert len(rows) == len(PROTOCOLS) * len(DELAYS)
        assert {"E_best", "E_worst", "E_star", "L_star"} <= set(rows[0])


class TestFigure2:
    def test_one_sweep_per_protocol(self, figure2_result):
        by_protocol = _by_protocol(figure2_result)
        assert list(by_protocol) == list(PROTOCOLS)
        for records in by_protocol.values():
            assert [record.row["energy_budget"] for record in records] == list(BUDGETS)
        assert not figure2_result.failed_records

    def test_raising_budget_favours_delay_player(self, figure2_result):
        for records in _by_protocol(figure2_result).values():
            stars = [record.value.delay_star for record in records]
            assert stars[0] >= stars[1] >= stars[2]

    def test_agreed_energy_respects_each_budget(self, figure2_result):
        for records in _by_protocol(figure2_result).values():
            for budget, record in zip(BUDGETS, records):
                assert record.value.energy_star <= budget * 1.001
                assert record.value.max_delay == FIGURE_MAX_DELAY_FIXED

    def test_rows_are_flat_and_complete(self, figure2_result):
        rows = figure2_result.rows()
        assert len(rows) == len(PROTOCOLS) * len(BUDGETS)
        assert "energy_budget" in rows[0]
