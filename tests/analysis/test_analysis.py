"""Tests for the sweep kind, reporting, validation and scalability analysis."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.reporting import format_table, solutions_to_rows, write_csv
from repro.analysis.scalability import scalability_study
from repro.analysis.validation import validate_protocol, validate_protocols
from repro.api import ExperimentSpec, ResultSet, run
from repro.core.requirements import ApplicationRequirements
from repro.core.tradeoff import EnergyDelayGame
from repro.exceptions import ConfigurationError
from repro.protocols import XMACModel
from repro.runtime import ProcessExecutor, build_runner
from repro.simulation import SimulationConfig

#: Small inline scenario (matches the ``small_scenario`` fixture).
SMALL = {"depth": 4, "density": 6, "sampling_period": 600.0, "radio": "cc2420"}


def _sweep(parameter: str, values, **requirements: float) -> ResultSet:
    spec = (
        ExperimentSpec.experiment("sweep")
        .with_scenario(SMALL)
        .with_protocols("xmac")
        .with_sweep(parameter, values)
        .with_requirements(**requirements)
        .with_solver(grid_points=40, random_starts=2)
    )
    return run(spec, runner=build_runner(workers=1, use_cache=False))


class TestSweeps:
    def test_delay_sweep_produces_one_solution_per_feasible_value(self):
        result = _sweep("max_delay", [1.0, 3.0], energy_budget=0.06)
        assert [record.row["max_delay"] for record in result] == [1.0, 3.0]
        assert all(record.value is not None for record in result)
        assert not result.failed_records

    def test_delay_sweep_flags_infeasible_values(self):
        result = _sweep("max_delay", [0.001, 3.0], energy_budget=0.06)
        infeasible, feasible = result.records
        assert not infeasible.ok and infeasible.value is None
        assert infeasible.row["max_delay"] == 0.001
        assert infeasible.row["feasible"] is False
        assert "delay" in infeasible.error
        assert feasible.ok and feasible.row["max_delay"] == 3.0

    def test_energy_sweep_produces_series_rows(self):
        result = _sweep("energy_budget", [0.01, 0.05], max_delay=6.0)
        rows = result.rows()
        assert len(rows) == 2
        assert rows[0]["protocol"] == "xmac"
        assert result.records[0].value.protocol == "X-MAC"
        assert "E_star" in rows[0]

    def test_relaxing_delay_bound_never_increases_best_energy(self):
        result = _sweep("max_delay", [0.8, 2.0, 5.0], energy_budget=0.06)
        best = [record.value.energy_best for record in result]
        assert best[0] >= best[1] >= best[2]

    def test_duplicate_swept_value_kept_per_index(self):
        # A value swept twice must come back twice, not be collapsed or
        # dropped by a membership test.
        result = _sweep("max_delay", [3.0, 0.001, 3.0], energy_budget=0.06)
        assert [record.ok for record in result] == [True, False, True]
        assert [record.row["max_delay"] for record in result.ok_records] == [3.0, 3.0]
        assert result.records[0].row == result.records[2].row


class TestReporting:
    def test_format_table_alignment_and_content(self):
        rows = [{"a": 1.0, "b": "x"}, {"a": 2.5, "b": "yy"}]
        table = format_table(rows)
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_format_table_blank_fills_heterogeneous_rows(self):
        table = format_table([{"a": 1}, {"b": 2}, {"a": 3, "c": 4}])
        lines = table.splitlines()
        # Columns are the union of keys, in first-appearance order.
        assert lines[0].split() == ["a", "b", "c"]
        assert lines[2].split() == ["1"]  # missing cells are blank
        assert lines[3].split() == ["2"]
        assert lines[4].split() == ["3", "4"]

    def test_write_csv_blank_fills_heterogeneous_rows(self, tmp_path: Path):
        path = write_csv([{"a": 1}, {"b": 2}], tmp_path / "mixed.csv")
        content = path.read_text().strip().splitlines()
        assert content[0] == "a,b"
        assert content[1] == "1,"
        assert content[2] == ",2"

    def test_solutions_to_rows_blank_fills_missing_solutions(self):
        rows = solutions_to_rows([None], "Lmax[s]", [2.0])
        assert rows[0]["Lmax[s]"] == 2.0
        assert rows[0]["E_star[J/s]"] == ""

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_write_csv_round_trip(self, tmp_path: Path):
        rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        path = write_csv(rows, tmp_path / "out" / "table.csv")
        content = path.read_text().strip().splitlines()
        assert content[0] == "a,b"
        assert content[1] == "1,2"

    def test_write_csv_rejects_empty(self, tmp_path: Path):
        with pytest.raises(ConfigurationError):
            write_csv([], tmp_path / "empty.csv")

    def test_solutions_to_rows(self, xmac, requirements):
        solution = EnergyDelayGame(
            xmac, requirements.with_max_delay(2.0), grid_points_per_dimension=40
        ).solve()
        rows = solutions_to_rows([solution], "Lmax[s]", [2.0])
        assert rows[0]["Lmax[s]"] == 2.0
        assert rows[0]["L_star[ms]"] > 0


class TestValidation:
    def test_validation_report_fields_and_errors(self, small_scenario):
        model = XMACModel(small_scenario)
        report = validate_protocol(
            model,
            {"wakeup_interval": 0.4},
            SimulationConfig(horizon=1500.0, seed=3),
        )
        assert report.protocol == "X-MAC"
        assert report.delivery_ratio > 0.95
        assert report.energy_error < 0.35
        assert report.delay_error < 0.5
        as_dict = report.as_dict()
        assert "energy_error" in as_dict and "delay_error" in as_dict

    def test_within_helper(self, small_scenario):
        model = XMACModel(small_scenario)
        report = validate_protocol(
            model, {"wakeup_interval": 0.4}, SimulationConfig(horizon=1000.0, seed=3)
        )
        assert report.within(energy_tolerance=1.0, delay_tolerance=1.0)
        assert not report.within(energy_tolerance=1e-9, delay_tolerance=1e-9)

    def test_batched_validation_matches_individual(self, small_scenario):
        model = XMACModel(small_scenario)
        config = SimulationConfig(horizon=800.0, seed=3)
        jobs = [(model, {"wakeup_interval": 0.4}), (model, {"wakeup_interval": 0.6})]
        serial = validate_protocols(jobs, config)
        pooled = validate_protocols(jobs, config, executor=ProcessExecutor(workers=2))
        assert [r.as_dict() for r in serial] == [r.as_dict() for r in pooled]
        assert [r.parameters["wakeup_interval"] for r in serial] == [0.4, 0.6]


class TestScalability:
    def test_solve_time_does_not_blow_up_with_node_count(self):
        requirements = ApplicationRequirements(energy_budget=0.06, max_delay=6.0)
        records = scalability_study(
            XMACModel,
            sizes=[(3, 4), (6, 8), (9, 10)],
            requirements=requirements,
            grid_points_per_dimension=30,
            random_starts=1,
        )
        assert len(records) == 3
        nodes = [record.node_count for record in records]
        assert nodes == sorted(nodes)
        assert nodes[-1] > 15 * nodes[0]
        times = [record.solve_seconds for record in records]
        # The game is solved over MAC parameters, not nodes: a 16x larger
        # network must not cost anywhere near 16x the solve time.
        assert times[-1] < 6.0 * max(times[0], 0.05)

    def test_records_contain_solution_values(self):
        requirements = ApplicationRequirements(energy_budget=0.06, max_delay=6.0)
        records = scalability_study(
            XMACModel,
            sizes=[(3, 4)],
            requirements=requirements,
            grid_points_per_dimension=30,
            random_starts=1,
        )
        assert records[0].energy_star > 0
        assert records[0].delay_star > 0
