"""Plan expansion: unit counts, resolution errors, filter/shard."""

from __future__ import annotations

import re

import pytest

from repro.api import ExperimentSpec, plan
from repro.exceptions import ConfigurationError
from repro.scenarios import available_scenarios, scenario_preset
from repro.protocols.registry import available_protocols, create_protocol


class TestCounts:
    def test_solve_plan_has_one_unit_per_protocol(self):
        spec = ExperimentSpec.experiment("solve").with_protocols("xmac", "dmac")
        units = plan(spec).units
        assert [unit.protocol for unit in units] == ["xmac", "dmac"]
        assert all(unit.kind == "game-solve" for unit in units)

    def test_sweep_plan_is_protocol_major(self):
        spec = (
            ExperimentSpec.experiment("sweep")
            .with_protocols("xmac", "lmac")
            .with_sweep("max_delay", [2.0, 4.0])
        )
        units = plan(spec).units
        assert [(u.protocol, u.settings["value"]) for u in units] == [
            ("xmac", 2.0),
            ("xmac", 4.0),
            ("lmac", 2.0),
            ("lmac", 4.0),
        ]

    def test_suite_plan_has_one_unit_per_pair(self):
        spec = (
            ExperimentSpec.experiment("suite")
            .with_scenarios("paper-default", "high-rate", "bursty")
            .with_protocols("xmac", "lmac")
        )
        assert plan(spec).count == 6

    def test_suite_plan_defaults_cover_everything(self):
        expected = len(available_scenarios()) * len(available_protocols())
        assert plan(ExperimentSpec.experiment("suite")).count == expected

    def test_figure_plans_default_to_the_paper_grid(self):
        assert plan(ExperimentSpec.experiment("figure1")).count == 3 * 6
        assert plan(ExperimentSpec.experiment("figure2")).count == 3 * 6

    def test_campaign_plan_is_one_unit_per_cell(self):
        spec = (
            ExperimentSpec.experiment("campaign")
            .with_scenarios("paper-default", "high-rate")
            .with_protocols("xmac")
            .with_campaign(replications=3)
        )
        units = plan(spec).units
        assert len(units) == 2
        assert all(unit.kind == "campaign-cell" for unit in units)
        assert all(unit.settings["replications"] == 3 for unit in units)

    def test_validate_plan_is_one_unit_per_protocol(self):
        spec = ExperimentSpec.experiment("validate").with_protocols("xmac", "lmac")
        units = plan(spec).units
        assert [unit.kind for unit in units] == ["simulation", "simulation"]


class TestResolutionErrors:
    def test_unknown_protocol(self):
        spec = ExperimentSpec.experiment("solve").with_protocols("nosuchmac")
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            plan(spec)

    def test_unknown_scenario_preset(self):
        spec = ExperimentSpec.experiment("suite").with_scenarios("nosuchscenario")
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            plan(spec)

    def test_unknown_radio_in_inline_scenario(self):
        spec = (
            ExperimentSpec.experiment("solve")
            .with_protocols("xmac")
            .with_scenario({"radio": "cc9999"})
        )
        with pytest.raises(ConfigurationError, match="unknown radio"):
            plan(spec)

    def test_solve_without_protocols(self):
        with pytest.raises(ConfigurationError, match="at least one protocol"):
            plan(ExperimentSpec.experiment("solve"))

    def test_sweep_without_axis(self):
        spec = ExperimentSpec.experiment("sweep").with_protocols("xmac")
        with pytest.raises(ConfigurationError, match="needs a sweep axis"):
            plan(spec)

    def test_figure_axis_mismatch(self):
        spec = ExperimentSpec.experiment("figure1").with_sweep("energy_budget", [0.02])
        with pytest.raises(ConfigurationError, match="sweeps 'max_delay'"):
            plan(spec)

    def test_validate_rejects_analytical_only_protocols(self, analytical_only_protocol):
        spec = ExperimentSpec.experiment("validate").with_protocols(
            analytical_only_protocol
        )
        # The error names the protocols that *do* have a simulator, so the
        # spec author learns the fix without a deep runtime failure.
        with pytest.raises(ConfigurationError, match="no simulated behaviour.*scpmac"):
            plan(spec)

    def test_campaign_rejects_analytical_only_protocols(self, analytical_only_protocol):
        spec = (
            ExperimentSpec.experiment("campaign")
            .with_scenarios("paper-default")
            .with_protocols(analytical_only_protocol)
        )
        with pytest.raises(ConfigurationError, match="no simulated behaviour"):
            plan(spec)

    def test_validate_and_campaign_accept_scpmac(self):
        validate = ExperimentSpec.experiment("validate").with_protocols("scpmac")
        assert plan(validate).protocol_names == ["scpmac"]
        campaign = (
            ExperimentSpec.experiment("campaign")
            .with_scenarios("paper-default")
            .with_protocols("xmac", "scpmac")
        )
        assert plan(campaign).protocol_names == ["xmac", "scpmac"]

    @pytest.mark.parametrize("kind, section", [("validate", "simulation"), ("campaign", "campaign")])
    def test_horizon_past_the_event_budget_is_refused_by_name(self, kind, section):
        # 200 sources at one packet per 300 s need ~3.3e6 s of horizon to
        # generate the simulator's 2e6-event budget; 1e20 s would exhaust
        # memory building the generation events before the budget bites.
        payload = {
            "kind": kind,
            "scenarios": ["paper-default"],
            "protocols": ["xmac"],
            section: {"horizon": 1e20},
        }
        with pytest.raises(
            ConfigurationError,
            match=rf"{section}\.horizon 1e\+20 is too long for scenario 'paper-default': "
            r"event budget exceeded \(2000000\)",
        ):
            plan(ExperimentSpec.from_dict(payload))
        payload[section] = {"horizon": 3.0e6}
        assert len(plan(ExperimentSpec.from_dict(payload))) == 1

    @pytest.mark.parametrize(
        "parameters, message",
        [
            # Far below the box: the simulator would run it and report a
            # model delay less than half the simulated one.
            (
                {"slot_length": 0.0001, "slot_count": 9},
                "simulation.parameters.slot_length = 0.0001 is outside lmac's box "
                "[0.00466, 0.588235] in scenario 'paper-default'",
            ),
            # It would fail deep in the simulator, as a zero frame period.
            (
                {"slot_length": 0.01, "slot_count": 0.5},
                "simulation.parameters.slot_count = 0.5 is outside lmac's box "
                "[17, 34] in scenario 'paper-default'",
            ),
        ],
        ids=["below-the-box", "fractional-slot-count"],
    )
    def test_validate_parameters_outside_the_box_are_refused_by_name(self, parameters, message):
        spec = (
            ExperimentSpec.experiment("validate")
            .with_protocols("lmac")
            .with_simulation(parameters=parameters)
        )
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            plan(spec)
        # The box's own corners (within its tolerance) are accepted.
        space = create_protocol("lmac", scenario_preset("paper-default").scenario).parameter_space
        for corner in (space.lower_bounds, space.upper_bounds + 1e-10):
            assert len(plan(spec.with_simulation(parameters=space.to_dict(corner)))) == 1

    def test_oversized_scenario_is_refused_by_name(self):
        # 300 rings of density 300 are 27M nodes: the deployment's n×n
        # distance arrays alone would need petabytes.  At one packet per
        # 600 s, a 600 s horizon generates nothing, so the event budget
        # cannot catch it.
        payload = {
            "kind": "validate",
            "scenario": {"depth": 300, "density": 300, "sampling_period": 600},
            "protocols": ["xmac"],
            "simulation": {"horizon": 600},
        }
        with pytest.raises(ConfigurationError) as caught:
            plan(ExperimentSpec.from_dict(payload))
        assert str(caught.value) == (
            "scenario 'custom' is too large to simulate: 27000000 sensor nodes "
            "exceed the deployment limit of 4000"
        )
        payload["scenario"] = {"depth": 1, "density": 4001, "sampling_period": 600}
        with pytest.raises(ConfigurationError, match="4001 sensor nodes exceed"):
            plan(ExperimentSpec.from_dict(payload))
        payload["scenario"] = {"depth": 1, "density": 4000, "sampling_period": 600}
        assert len(plan(ExperimentSpec.from_dict(payload))) == 1

    def test_protocol_aliases_resolve(self):
        spec = ExperimentSpec.experiment("solve").with_protocols("x-mac")
        assert plan(spec).units[0].protocol == "xmac"


class TestFilterShard:
    @pytest.fixture
    def figure_plan(self):
        return plan(ExperimentSpec.experiment("figure1"))

    def test_select_by_protocol(self, figure_plan):
        sub = figure_plan.select(protocol="xmac")
        assert sub.count == 6
        assert sub.protocol_names == ["xmac"]

    def test_filter_preserves_original_indices(self, figure_plan):
        sub = figure_plan.filter(lambda unit: unit.index % 2 == 1)
        assert [unit.index for unit in sub.units] == list(range(1, 18, 2))

    def test_shards_partition_the_plan(self, figure_plan):
        shards = [figure_plan.shard(i, 4) for i in range(4)]
        assert sum(shard.count for shard in shards) == figure_plan.count
        seen = sorted(unit.index for shard in shards for unit in shard.units)
        assert seen == list(range(figure_plan.count))

    def test_shard_bounds_are_checked(self, figure_plan):
        with pytest.raises(ConfigurationError, match="shard count"):
            figure_plan.shard(0, 0)
        with pytest.raises(ConfigurationError, match="shard index"):
            figure_plan.shard(4, 4)

    def test_plan_rows_are_printable(self, figure_plan):
        from repro.analysis.reporting import format_table

        table = format_table(figure_plan.rows())
        assert "xmac" in table
        assert "parameter" in table.splitlines()[0]
