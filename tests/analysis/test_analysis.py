"""Tests for the sweep kind, reporting, validation and scalability."""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.analysis.reporting import format_table, write_csv
from repro.analysis.validation import validate_protocol
from repro.api import ExperimentSpec, ResultSet, run
from repro.core.requirements import ApplicationRequirements
from repro.core.tradeoff import EnergyDelayGame
from repro.exceptions import ConfigurationError
from repro.network.topology import RingTopology
from repro.protocols import XMACModel
from repro.protocols.registry import create_protocol
from repro.runtime import build_runner
from repro.scenario import Scenario
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
        .with_solver(grid_points=40)
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
        # A validate spec's units run serially and on two workers alike, and
        # each report equals the spot check of its configuration.
        spec = (
            ExperimentSpec.experiment("validate")
            .with_scenario(SMALL)
            .with_protocols("xmac", "dmac")
            .with_simulation(horizon=800.0, seed=3)
        )
        serial = run(spec, runner=build_runner(workers=1, use_cache=False))
        pooled = run(spec, runner=build_runner(workers=2, use_cache=False))
        assert serial.rows() == pooled.rows()
        assert [record.value.protocol for record in serial] == ["X-MAC", "DMAC"]
        config = SimulationConfig(horizon=800.0, seed=3)
        for record in serial:
            model = create_protocol(record.unit.protocol, small_scenario)
            report = validate_protocol(model, record.value.parameters, config)
            assert report.as_dict() == record.value.as_dict()


class TestScalability:
    def test_solve_time_does_not_blow_up_with_node_count(self):
        """The players are the metrics, not the nodes (the paper's last
        claim): from 48 to 2,304 nodes the solve time of the whole game must
        grow nowhere near as fast as the network."""
        requirements = ApplicationRequirements(energy_budget=0.06, max_delay=6.0)
        nodes, seconds, delays = [], [], []
        for depth, density in [(3, 4), (5, 8), (8, 10), (12, 16)]:
            scenario = Scenario(
                topology=RingTopology(depth=depth, density=density),
                sampling_rate=1.0 / 3600.0,
            )
            game = EnergyDelayGame(
                XMACModel(scenario), requirements, grid_points_per_dimension=48
            )
            started = time.perf_counter()
            solution = game.solve()
            seconds.append(time.perf_counter() - started)
            nodes.append(scenario.topology.total_nodes())
            delays.append(solution.delay_star)
        assert nodes[-1] / nodes[0] > 40
        assert seconds[-1] < 8.0 * max(seconds[0], 0.05)
        # Larger, deeper networks pay more delay at the agreement.
        assert delays[-1] > delays[0]
