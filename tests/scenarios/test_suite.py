"""The ``suite`` spec kind: (scenario × protocol) batches through the runtime."""

from __future__ import annotations

import pytest

from repro.analysis.reporting import format_table
from repro.api import ExperimentSpec, ResultSet, plan, run
from repro.exceptions import ConfigurationError
from repro.runtime import build_runner
from repro.scenario import Scenario
from repro.scenarios import (
    ScenarioPreset,
    available_scenarios,
    register_scenario_preset,
    unregister_scenario_preset,
)
from repro.store import ResultStore

#: Coarse solver grid: the suite tests exercise plumbing, not precision.
GRID = 25


def _tiny_preset(name: str = "tiny", **overrides) -> ScenarioPreset:
    defaults = {
        "name": name,
        "title": "Tiny test scenario",
        "description": "Three shallow rings for fast suite tests.",
        "scenario": Scenario(sampling_rate=1.0 / 600.0),
        "energy_budget": 0.06,
        "max_delay": 6.0,
    }
    defaults.update(overrides)
    return ScenarioPreset(**defaults)


@pytest.fixture
def tiny_presets():
    """Register the test presets for one test, then remove them again."""
    presets = (
        _tiny_preset(),
        _tiny_preset(name="impossible", max_delay=1e-6),
        # Density 1100 pushes LMAC's minimum slot count past the 10 s drift
        # bound: the maximum slot falls below the minimum slot and the
        # parameter space is empty, so the model cannot be used at all.
        _tiny_preset(
            name="lmac-hostile",
            scenario=Scenario(sampling_rate=1.0 / 600.0).with_topology(density=1100),
        ),
    )
    for preset in presets:
        register_scenario_preset(preset)
    yield
    for preset in presets:
        unregister_scenario_preset(preset.name)


def _suite(scenarios, protocols, runner=None, **requirements) -> ResultSet:
    spec = (
        ExperimentSpec.experiment("suite")
        .with_scenarios(*scenarios)
        .with_protocols(*protocols)
        .with_solver(grid_points=GRID)
    )
    if requirements:
        spec = spec.with_requirements(**requirements)
    if runner is None:
        runner = build_runner(workers=1, use_cache=False)
    return run(spec, runner=runner)


class TestConstruction:
    def test_defaults_cover_all_pairs(self):
        full = plan(ExperimentSpec.experiment("suite"))
        assert len(full.scenario_names) >= 6
        assert "xmac" in full.protocol_names
        assert full.count == len(full.scenario_names) * len(full.protocol_names)

    def test_accepts_registered_presets(self, tiny_presets):
        spec = ExperimentSpec.experiment("suite").with_scenarios("paper-default", "tiny")
        assert plan(spec).scenario_names == ["paper-default", "tiny"]

    def test_protocol_aliases_canonicalized(self):
        spec = (
            ExperimentSpec.experiment("suite")
            .with_scenarios("paper-default")
            .with_protocols("X-MAC")
        )
        assert plan(spec).protocol_names == ["xmac"]

    def test_rejects_duplicate_scenarios(self):
        spec = ExperimentSpec.experiment("suite").with_scenarios(
            "paper-default", "paper-default"
        )
        with pytest.raises(ConfigurationError, match="duplicate"):
            plan(spec)

    def test_rejects_unknown_scenario(self):
        spec = ExperimentSpec.experiment("suite").with_scenarios("no-such-scenario")
        with pytest.raises(ConfigurationError, match="known presets"):
            plan(spec)

    def test_rejects_non_scenario_objects(self):
        # Refused while parsing, by name, before the planner sees it.
        with pytest.raises(ConfigurationError, match=r"scenarios\[0\] must be a string"):
            ExperimentSpec.from_dict({"kind": "suite", "scenarios": [42]})


class TestRun:
    def test_runs_all_pairs_and_reports_cells(self, tiny_presets):
        result = _suite(("tiny",), ("xmac", "dmac"))
        assert [(r.unit.scenario, r.unit.protocol) for r in result] == [
            ("tiny", "xmac"),
            ("tiny", "dmac"),
        ]
        assert all(record.ok for record in result)
        assert result.records[0].value.protocol == "X-MAC"
        rows = result.rows()
        assert len(rows) == 2 and rows[0]["feasible"] is True

    def test_mixed_feasible_infeasible_rows_share_columns_and_render(self, tiny_presets):
        """Feasible and infeasible cells must produce printable uniform rows."""
        result = _suite(("impossible", "tiny"), ("xmac",))
        rows = result.rows()
        assert len(result.ok_records) == 1 and len(result.failed_records) == 1
        columns = list(rows[0])
        assert all(list(row) == columns for row in rows)
        rendered = format_table(rows)  # must not raise on the mixed batch
        assert "impossible" in rendered and "tiny" in rendered

    def test_infeasible_scenario_does_not_poison_the_batch(self, tiny_presets):
        """An impossible delay bound in one scenario leaves the others intact."""
        result = _suite(("impossible", "tiny"), ("xmac",))
        impossible, feasible = result.records
        assert not impossible.ok and impossible.value is None
        assert "delay" in impossible.error
        assert impossible.row["error"] == impossible.error[:80]
        assert feasible.ok and feasible.value is not None
        assert feasible.row["error"] == ""

    def test_unconstructible_model_recorded_as_infeasible_cell(self, tiny_presets):
        """A scenario that empties a protocol's parameter space is data too."""
        result = _suite(("lmac-hostile",), ("xmac", "lmac"))
        records = {record.unit.protocol: record for record in result}
        assert records["xmac"].ok
        assert not records["lmac"].ok
        assert records["lmac"].error.startswith("model construction failed")
        assert records["lmac"].row["feasible"] is False

    def test_requirement_overrides_apply_to_every_preset(self, tiny_presets):
        result = _suite(("tiny", "paper-default"), ("xmac",), max_delay=2.0)
        for record in result:
            assert record.value.max_delay == 2.0
        assert result.records[0].value.energy_budget == _tiny_preset().energy_budget

    def test_suite_reuses_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cold = _suite(("paper-default",), ("xmac",), runner=build_runner(store=store))
        warm = _suite(("paper-default",), ("xmac",), runner=build_runner(store=store))
        assert (warm.telemetry["cache_hits"], warm.telemetry["cache_misses"]) == (1, 0)
        assert cold.rows() == warm.rows()

    def test_suggested_requirements_feasible_for_paper_protocols(self):
        """Every built-in preset solves for the paper's three protocols."""
        spec = (
            ExperimentSpec.experiment("suite")
            .with_protocols("xmac", "dmac", "lmac")
            .with_solver(grid_points=20)
        )
        result = run(spec, runner=build_runner(workers=0, use_cache=False))
        infeasible = [f"{r.unit.scenario}/{r.unit.protocol}" for r in result.failed_records]
        assert not infeasible, f"infeasible pairs: {infeasible}"
        assert len(result) == len(available_scenarios()) * 3
