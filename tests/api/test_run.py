"""run(): each workload kind against its reference computation + ResultSet.

A spec's numbers must match the direct computation it describes (a game
solve, a simulation check, a campaign) bit for bit at workers=1.  Every
test here solves with small grids to stay fast.
"""

from __future__ import annotations

import json

import pytest

from repro.api import ExperimentSpec, plan, run
from repro.exceptions import InfeasibleProblemError
from repro.protocols.registry import register_protocol, unregister_protocol
from repro.protocols.xmac import XMACModel
from repro.runtime import build_runner

#: Small inline scenario shared by the fast tests (matches the
#: ``small_scenario`` fixture).
SMALL = {"depth": 4, "density": 6, "sampling_period": 600.0, "radio": "cc2420"}

GRID = 25


def fresh_runner():
    """An uncached serial runner."""
    return build_runner(workers=1, use_cache=False)


class TestSolveKind:
    def test_solve_matches_direct_game(self, xmac, requirements):
        from repro.core.tradeoff import EnergyDelayGame

        spec = (
            ExperimentSpec.experiment("solve")
            .with_scenario(SMALL)
            .with_protocols("xmac")
            .with_requirements(energy_budget=0.06, max_delay=6.0)
            .with_solver(grid_points=GRID)
        )
        result = run(spec, runner=fresh_runner())
        direct = EnergyDelayGame(
            xmac, requirements, grid_points_per_dimension=GRID
        ).solve()
        solution = result.records[0].value
        assert solution.energy_star == direct.energy_star
        assert solution.delay_star == direct.delay_star
        assert solution.energy_best == direct.energy_best
        assert result.rows()[0]["feasible"] is True

    def test_infeasible_solve_raises(self):
        spec = (
            ExperimentSpec.experiment("solve")
            .with_scenario(SMALL)
            .with_protocols("xmac")
            .with_requirements(energy_budget=1e-9, max_delay=1e-3)
            .with_solver(grid_points=10)
        )
        with pytest.raises(InfeasibleProblemError):
            run(spec, runner=fresh_runner())

    def test_registered_custom_protocol_is_spec_addressable(self, small_scenario):
        class ToyMAC(XMACModel):
            name = "Toy-MAC"
            family = "toy"

        register_protocol("toymac", ToyMAC, overwrite=True)
        try:
            # overwrite=True makes re-registration idempotent.
            register_protocol("toymac", ToyMAC, overwrite=True)
            spec = (
                ExperimentSpec.experiment("solve")
                .with_scenario(SMALL)
                .with_protocols("toymac")
                .with_solver(grid_points=GRID)
            )
            result = run(spec, runner=fresh_runner())
            assert result.records[0].value.protocol == "Toy-MAC"
        finally:
            unregister_protocol("toymac")


class TestSweepKind:
    def test_infeasible_values_are_rows_not_errors(self):
        spec = (
            ExperimentSpec.experiment("sweep")
            .with_scenario(SMALL)
            .with_protocols("xmac")
            .with_sweep("max_delay", [0.002, 4.0])
            .with_solver(grid_points=15)
        )
        result = run(spec, runner=fresh_runner())
        rows = result.rows()
        assert rows[0]["feasible"] is False
        assert rows[1]["feasible"] is True
        assert len(result.failed_records) == 1
        assert result.failed_records[0].row["max_delay"] == 0.002
        assert result.failed_records[0].value is None


class TestSuiteKind:
    SCENARIOS = ("paper-default", "high-rate")
    PROTOCOLS = ("xmac", "lmac")

    def spec(self):
        return (
            ExperimentSpec.experiment("suite")
            .with_scenarios(*self.SCENARIOS)
            .with_protocols(*self.PROTOCOLS)
            .with_solver(grid_points=GRID)
        )

    def test_filtered_suite_plan_runs_the_subset(self):
        sub = plan(self.spec()).select(protocol="xmac")
        result = run(sub, runner=fresh_runner())
        assert [record.unit.protocol for record in result.records] == ["xmac", "xmac"]

    def test_parallel_suite_is_bit_identical(self):
        serial = run(self.spec(), runner=build_runner(workers=1, use_cache=False))
        parallel = run(self.spec(), runner=build_runner(workers=2, use_cache=False))
        assert serial.rows() == parallel.rows()


class TestValidateKind:
    def test_validate_matches_legacy_spot_check(self, xmac):
        from repro.analysis.validation import validate_protocol
        from repro.simulation.runner import SimulationConfig

        spec = (
            ExperimentSpec.experiment("validate")
            .with_scenario(SMALL)
            .with_protocols("xmac")
            .with_simulation(horizon=400.0, seed=3)
        )
        result = run(spec, runner=fresh_runner())
        space = xmac.parameter_space
        legacy = validate_protocol(
            xmac,
            space.to_dict(space.midpoint()),
            SimulationConfig(horizon=400.0, seed=3),
        )
        report = result.records[0].value
        assert report.simulated_energy == legacy.simulated_energy
        assert report.simulated_delay == legacy.simulated_delay
        assert result.rows()[0]["energy_error"] == legacy.energy_error


class TestCampaignKind:
    def spec(self):
        return (
            ExperimentSpec.experiment("campaign")
            .with_scenarios("paper-default", "high-rate")
            .with_protocols("xmac")
            .with_campaign(replications=2, base_seed=1, horizon=600.0)
            .with_solver(grid_points=20)
        )

    def test_empty_campaign_plan_runs_nothing(self):
        # A shard beyond the unit count has no campaign artifact.
        empty = plan(self.spec()).shard(1, 3).shard(0, 2).filter(lambda _: False)
        result = run(empty, runner=fresh_runner())
        assert result.records == []
        assert result.raw is None

    def test_non_rectangular_campaign_plan_runs_exactly_its_units(self):
        spec = self.spec().with_protocols("xmac", "lmac")
        full = run(spec, runner=fresh_runner())
        cells = {(cell.scenario, cell.protocol): cell for cell in full.raw.cells}
        # Shard 0/3 of the 2×2 grid holds paper-default/xmac and
        # high-rate/lmac; dropping unit 1 leaves three cells of four.
        for lopsided in (plan(spec).shard(0, 3), plan(spec).filter(lambda u: u.index != 1)):
            result = run(lopsided, runner=fresh_runner())
            assert [record.unit for record in result.records] == list(lopsided.units)
            assert [(c.scenario, c.protocol) for c in result.raw.cells] == [
                (unit.scenario, unit.protocol) for unit in lopsided.units
            ]
            # Each cell is the same cell the full run computes.
            for cell in result.raw.cells:
                assert cell.as_dict() == cells[cell.scenario, cell.protocol].as_dict()
            assert result.raw.as_dict()["spec"]["scenarios"] == lopsided.scenario_names
            assert result.raw.as_dict()["spec"]["protocols"] == lopsided.protocol_names

    def test_campaign_solves_with_the_spec_requirements_and_solver_options(self):
        # A campaign cell's game is the suite's game of the same preset,
        # protocol, requirement overrides and solver settings.
        def overridden(spec):
            return (
                spec.with_scenarios("paper-default")
                .with_protocols("xmac")
                .with_requirements(max_delay=2.0)
                .with_solver(grid_points=20)
            )

        campaign = overridden(self.spec())
        (cell,) = run(campaign, runner=fresh_runner()).raw.cells
        (record,) = run(overridden(ExperimentSpec.experiment("suite")), runner=fresh_runner()).records
        assert cell.parameters == dict(record.value.bargaining.point.parameters)
        # The preset's own requirements give another Nash point, so the
        # overrides reached the campaign's solve.
        default = self.spec().with_scenarios("paper-default")
        (plain,) = run(default, runner=fresh_runner()).raw.cells
        assert plain.parameters != cell.parameters


class TestResultSet:
    @pytest.fixture
    def result(self):
        spec = (
            ExperimentSpec.experiment("sweep", name="demo")
            .with_scenario(SMALL)
            .with_protocols("xmac")
            .with_sweep("max_delay", [2.0, 4.0])
            .with_solver(grid_points=15)
        )
        return run(spec, runner=fresh_runner())

    def test_summary_counts(self, result):
        summary = result.summary()
        assert summary["kind"] == "sweep"
        assert summary["name"] == "demo"
        assert summary["units"] == 2
        assert summary["ok"] == 2
        assert summary["spec_sha256"] == result.provenance

    def test_to_csv(self, result, tmp_path):
        path = result.to_csv(tmp_path / "out.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("scenario,protocol,max_delay")

    def test_to_json_payload_is_versioned(self, result, tmp_path):
        path = result.to_json(tmp_path / "out.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.api.resultset"
        assert payload["schema_version"] == 1
        assert payload["spec_sha256"] == result.provenance
        assert len(payload["rows"]) == 2

    def test_telemetry_reports_the_runner_but_is_never_written(self, result):
        assert result.telemetry == {"runner": "serial[1]", "cache_hits": 0, "cache_misses": 0}
        assert result.metadata == {"plan": plan(result.spec).describe()}
        assert "runner" not in result.json_text()

    def test_raw_is_only_the_campaign_artifact(self, result):
        assert result.raw is None

    def test_mixed_rows_format(self, result):
        from repro.analysis.reporting import format_table

        # Heterogeneous union with an unrelated row shape must not raise.
        table = format_table(result.rows() + [{"scenario": "x", "note": "hi"}])
        assert "note" in table.splitlines()[0]
