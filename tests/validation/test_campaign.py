"""Monte-Carlo campaigns: seeds, settings, aggregation gates, determinism.

Every campaign runs as a ``campaign`` spec through :func:`repro.api.run`,
the one way to run one.
"""

from __future__ import annotations

import threading
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, plan, run
from repro.api.spec import CampaignSettings
from repro.exceptions import ConfigurationError, ValidationError
from repro.network.topology import RingTopology
from repro.protocols.registry import create_protocol
from repro.runtime import build_runner
from repro.scenario import Scenario
from repro.scenarios import scenario_preset
from repro.scenarios.presets import (
    ScenarioPreset,
    available_scenarios,
    register_scenario_preset,
    unregister_scenario_preset,
)
from repro.simulation.runner import SimulationConfig
from repro.validation import (
    MetricCheck,
    ReplicationMeasurement,
    aggregate_measurements,
    campaign_to_json,
    replication_seed,
)
from repro.validation.campaign import _simulate_payload
from repro.validation.report import render_validation_markdown

ROOT = Path(__file__).resolve().parents[2]


def campaign(scenarios=("paper-default",), protocols=("xmac",), grid_points=15, **settings):
    """A small-but-real campaign spec: 2 replications of 300 s unless given."""
    return (
        ExperimentSpec.experiment("campaign")
        .with_scenarios(*scenarios)
        .with_protocols(*protocols)
        .with_campaign(**{"replications": 2, "horizon": 300.0, **settings})
        .with_solver(grid_points=grid_points)
    )


def campaign_result(spec, workers=1):
    """The spec's :class:`CampaignResult`, run uncached on ``workers``."""
    return run(spec, runner=build_runner(workers=workers, use_cache=False)).raw


class TestReplicationSeeds:
    def test_deterministic(self):
        assert replication_seed(1, "paper-default", "xmac", 0) == replication_seed(
            1, "paper-default", "xmac", 0
        )

    def test_distinct_across_identity_components(self):
        seeds = {
            replication_seed(1, "paper-default", "xmac", 0),
            replication_seed(1, "paper-default", "xmac", 1),
            replication_seed(1, "paper-default", "lmac", 0),
            replication_seed(1, "high-rate", "xmac", 0),
            replication_seed(2, "paper-default", "xmac", 0),
        }
        assert len(seeds) == 5

    def test_fits_numpy_seed_range(self):
        seed = replication_seed(123, "bursty", "dmac", 7)
        assert 0 <= seed < 2**32


class TestCampaignRefusals:
    """Every campaign setting is checked once: ranges in ``CampaignSettings``,
    names, simulability and the horizon's event budget at plan time."""

    def test_defaults_cover_every_preset_and_all_four_simulable_protocols(self):
        default = plan(ExperimentSpec.experiment("campaign"))
        assert default.scenario_names == available_scenarios()
        assert {"xmac", "dmac", "lmac", "scpmac"} <= set(default.protocol_names)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            plan(campaign(scenarios=("no-such-preset",)))

    def test_duplicate_scenarios_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate scenarios"):
            plan(campaign(scenarios=("paper-default", "paper-default")))

    def test_horizon_past_the_event_budget_rejected_up_front(self):
        with pytest.raises(ConfigurationError, match="campaign.horizon 1e\\+20 .*'high-rate'"):
            plan(campaign(scenarios=("high-rate",), horizon=1e20))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_horizon_refused_by_name(self, value):
        # Before the event-budget check, which would call nan "too long".
        with pytest.raises(
            ConfigurationError, match=f"^campaign.horizon must be finite, got {value!r}$"
        ):
            ExperimentSpec.from_dict({"kind": "campaign", "campaign": {"horizon": value}})

    @pytest.mark.parametrize("field", ["energy_tolerance", "delay_tolerance"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_tolerance_refused_by_name(self, field, value):
        # A nan tolerance would make every cell's check fail silently.
        with pytest.raises(
            ConfigurationError, match=f"^campaign.{field} must be finite, got {value!r}$"
        ):
            ExperimentSpec.experiment("campaign").with_campaign(**{field: value})

    def test_oversized_scenario_rejected_up_front(self):
        preset = ScenarioPreset(
            name="oversized-ring",
            title="More nodes than a deployment may hold",
            description="Depth 300, density 300: 27M nodes.",
            scenario=Scenario(
                topology=RingTopology(depth=300, density=300), sampling_rate=1.0 / 600.0
            ),
            energy_budget=0.06,
            max_delay=6.0,
        )
        register_scenario_preset(preset)
        try:
            with pytest.raises(
                ConfigurationError,
                match="^scenario 'oversized-ring' is too large to simulate: "
                "27000000 sensor nodes exceed the deployment limit of 4000$",
            ):
                plan(campaign(scenarios=("oversized-ring",), horizon=600.0))
        finally:
            unregister_scenario_preset("oversized-ring")

    def test_analytical_only_protocol_rejected_up_front(self, analytical_only_protocol):
        # A behaviour-less protocol cannot be validated by simulation;
        # discovering that after the solve stage would abort the campaign,
        # so the plan refuses early.
        spec = ExperimentSpec.experiment("campaign").with_protocols(
            analytical_only_protocol, "xmac"
        )
        with pytest.raises(ConfigurationError, match="no simulated behaviour"):
            plan(spec)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"replications": 0}, "campaign.replications must be >= 1, got 0"),
            ({"horizon": 0.0}, "campaign.horizon must be positive, got 0.0"),
            ({"confidence": 1.0}, "campaign.confidence must lie in (0, 1), got 1.0"),
            ({"energy_tolerance": 0.0}, "campaign.energy_tolerance must be positive, got 0.0"),
            (
                {"min_delivery_ratio": 1.5},
                "campaign.min_delivery_ratio must lie in [0, 1], got 1.5",
            ),
        ],
    )
    def test_out_of_range_settings_refused_by_name(self, settings, message):
        with pytest.raises(ConfigurationError) as excinfo:
            ExperimentSpec.from_dict({"kind": "campaign", "campaign": settings})
        assert str(excinfo.value) == message

    def test_negative_base_seed_is_valid(self):
        # The base seed is hashed into every replication seed, never handed
        # to NumPy, so any integer will do.
        assert plan(campaign(base_seed=-1)).units[0].settings["base_seed"] == -1
        assert 0 <= replication_seed(-1, "paper-default", "xmac", 0) < 2**32


def _measurement(seed=1, energy=0.002, delay=0.25, delivery=1.0, generated=10, delivered=10):
    return ReplicationMeasurement(
        seed=seed,
        energy=energy,
        delay=delay,
        delivery_ratio=delivery,
        generated=generated,
        delivered=delivered,
        dropped=generated - delivered,
    )


class TestAggregation:
    def _spec(self, **overrides):
        return CampaignSettings(**overrides)

    def test_zero_delivered_packets_is_data_not_a_crash(self):
        # Every replication delivered nothing: the delay aggregate is empty,
        # the delay check is skipped and the delivery check fails — as data.
        measurements = [
            _measurement(seed=s, delay=None, delivery=0.0, generated=0, delivered=0)
            for s in (1, 2, 3)
        ]
        metrics, checks = aggregate_measurements(self._spec(), 0.002, 0.25, measurements)
        assert metrics["delay"].count == 0
        assert metrics["delay"].mean is None
        assert metrics["energy"].count == 3
        by_metric = {check.metric: check for check in checks}
        assert by_metric["delay"].status == "skipped"
        assert "no delivered packets" in by_metric["delay"].detail
        assert by_metric["delivery_ratio"].status == "fail"

    def test_partial_delivery_keeps_delay_samples_that_exist(self):
        measurements = [
            _measurement(seed=1, delay=0.3),
            _measurement(seed=2, delay=None, delivery=0.0, generated=5, delivered=0),
            _measurement(seed=3, delay=0.5),
        ]
        metrics, _ = aggregate_measurements(self._spec(), 0.002, 0.4, measurements)
        assert metrics["delay"].count == 2
        assert metrics["delay"].mean == pytest.approx(0.4)
        assert metrics["delivery_ratio"].count == 3

    def test_single_replication_degenerate_interval(self):
        metrics, checks = aggregate_measurements(
            self._spec(replications=1), 0.002, 0.25, [_measurement()]
        )
        for name in ("energy", "delay", "delivery_ratio"):
            assert metrics[name].count == 1
            assert metrics[name].ci_lower is None
            assert metrics[name].ci_upper is None
        # The tolerance gates still run on the (single-sample) mean.
        assert {check.status for check in checks} == {"pass"}

    def test_out_of_tolerance_fails_with_detail(self):
        _, checks = aggregate_measurements(
            self._spec(), 0.002 * 10.0, 0.25, [_measurement(seed=s) for s in (1, 2)]
        )
        energy = next(check for check in checks if check.metric == "energy")
        assert energy.status == "fail"
        assert energy.error == pytest.approx(9.0)
        assert "exceeds tolerance" in energy.detail

    def test_empty_measurements_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_measurements(self._spec(), 0.002, 0.25, [])

    def test_bad_check_status_rejected(self):
        with pytest.raises(ValidationError):
            MetricCheck(metric="energy", status="maybe")


class TestSimulatePayload:
    def test_zero_delivery_replication_yields_none_delay(self):
        # Seed 2 on a 40-second horizon generates no packet at all for the
        # paper's hourly sampling (pinned; the offsets all fall past the
        # generation cutoff).
        preset = scenario_preset("paper-default")
        model = create_protocol("xmac", preset.scenario)
        space = model.parameter_space
        params = space.to_dict(space.midpoint())
        measurement = _simulate_payload(
            (model, params, SimulationConfig(horizon=40.0, seed=2))
        )
        assert measurement.generated == 0
        assert measurement.delivered == 0
        assert measurement.delay is None
        assert measurement.delivery_ratio == 0.0
        assert measurement.energy > 0.0  # idle listening still costs power


class TestCampaignRuns:
    def test_small_campaign_end_to_end(self):
        spec = campaign()
        result = campaign_result(spec)
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.feasible
        assert cell.seeds == tuple(
            replication_seed(spec.campaign.base_seed, "paper-default", "xmac", r)
            for r in range(spec.campaign.replications)
        )
        assert set(cell.metrics) == {"energy", "delay", "delivery_ratio"}
        assert len(cell.checks) == 3
        assert result.cell("paper-default", "xmac") is cell
        rows = result.rows()
        assert rows[0]["scenario"] == "paper-default"
        assert rows[0]["status"] in ("pass", "fail")

    def test_infeasible_cell_recorded_as_data(self):
        preset = scenario_preset("paper-default")
        register_scenario_preset(
            ScenarioPreset(
                name="campaign-infeasible-test",
                title="Intentionally infeasible delay bound",
                description="Test-only preset whose game has no feasible point.",
                scenario=preset.scenario,
                energy_budget=preset.energy_budget,
                max_delay=1e-5,
            )
        )
        try:
            result = campaign_result(
                campaign(scenarios=("campaign-infeasible-test",), replications=1)
            )
        finally:
            unregister_scenario_preset("campaign-infeasible-test")
        cell = result.cells[0]
        assert not cell.feasible
        assert cell.solve_error
        assert cell.metrics == {}
        assert not result.feasible_cells
        # Infeasible cells carry no checks, so the campaign "passes".
        assert result.passed
        assert result.rows()[0]["status"] == "infeasible"

    def test_serial_and_pool_artifacts_byte_identical(self):
        spec = campaign(protocols=("xmac", "lmac"), replications=3)
        serial = campaign_result(spec, workers=1)
        pooled = campaign_result(spec, workers=3)
        assert campaign_to_json(serial) == campaign_to_json(pooled)
        # At the Nash point the model agrees with the simulator in every cell.
        assert len(serial.feasible_cells) == 2 and serial.passed

    def test_pooled_campaigns_share_one_pool(self, pool_sizes):
        # Solves and replications of every run go to the one kept pool, and
        # each run still equals its serial run.
        for base_seed in (1, 2, 3):
            spec = campaign(protocols=("xmac", "lmac"), base_seed=base_seed)
            pooled = campaign_result(spec, workers=2)
            assert campaign_to_json(pooled) == campaign_to_json(campaign_result(spec))
        assert pool_sizes == [2]

    def test_threads_run_pooled_campaigns_at_once(self):
        specs = [campaign(protocols=("xmac", "lmac"), base_seed=seed) for seed in (4, 5)]
        barrier = threading.Barrier(len(specs))
        pooled = {}

        def pooled_run(index):
            barrier.wait()
            pooled[index] = campaign_to_json(campaign_result(specs[index], workers=2))

        threads = [threading.Thread(target=pooled_run, args=(i,)) for i in range(len(specs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
        assert pooled == {i: campaign_to_json(campaign_result(spec)) for i, spec in enumerate(specs)}

    def test_artifact_excludes_runner_identity(self):
        payload = campaign_to_json(campaign_result(campaign()))
        assert "workers" not in payload
        assert "seconds" not in payload


class TestCampaignSection:
    """The artifact's ``spec`` section names everything that reached a solve."""

    SPEC = campaign(grid_points=20, replications=1)

    def test_requirement_overrides_and_solver_options_are_written(self):
        plain = campaign_result(self.SPEC)
        tuned = campaign_result(
            self.SPEC.with_requirements(max_delay=2.0).with_solver(feasibility_tolerance=1e-3)
        )
        # They move the Nash point, so two such artifacts must tell them apart.
        assert tuned.cells[0].parameters != plain.cells[0].parameters
        assert tuned.spec == {
            **plain.spec,
            "requirements": {"max_delay": 2.0},
            "solver_options": {"feasibility_tolerance": 1e-3},
        }
        report = render_validation_markdown(tuned.as_dict())
        assert "| Requirement overrides | `max_delay` = 2 |" in report
        assert "| Solver options | `feasibility_tolerance` = 0.001 |" in report

    def test_a_spec_without_them_keeps_its_section(self):
        assert sorted(campaign_result(self.SPEC.with_requirements()).spec) == [
            "base_seed",
            "confidence",
            "delay_tolerance",
            "energy_tolerance",
            "grid_points_per_dimension",
            "horizon_s",
            "min_delivery_ratio",
            "protocols",
            "replications",
            "scenarios",
        ]


class TestCommittedCampaign:
    def test_committed_artifact_regenerates_byte_for_byte(self):
        # docs/validation_campaign.json is this spec's artifact; the verify
        # recipe regenerates it with validate-campaign on two workers.
        spec = campaign(
            scenarios=("paper-default", "high-rate"),
            protocols=("xmac", "lmac", "dmac", "scpmac"),
            grid_points=40,
            replications=3,
            base_seed=1,
            horizon=1500.0,
        )
        committed = (ROOT / "docs" / "validation_campaign.json").read_text(encoding="utf-8")
        assert campaign_to_json(campaign_result(spec)) == committed
