"""Monte-Carlo campaign machinery: seeds, aggregation gates, determinism."""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.exceptions import ConfigurationError, ValidationError
from repro.network.topology import RingTopology
from repro.protocols.registry import create_protocol
from repro.runtime import build_runner
from repro.runtime import executor as executor_module
from repro.scenario import Scenario
from repro.scenarios import scenario_preset
from repro.scenarios.presets import (
    ScenarioPreset,
    register_scenario_preset,
    unregister_scenario_preset,
)
from repro.simulation.runner import SimulationConfig
from repro.validation import (
    CampaignSpec,
    MetricCheck,
    ReplicationMeasurement,
    aggregate_measurements,
    campaign_to_json,
    replication_seed,
    run_campaign,
)
from repro.validation.campaign import _simulate_payload

#: Small-but-real campaign used by the integration tests below.
FAST_SPEC = dict(
    scenarios=("paper-default",),
    protocols=("xmac",),
    replications=2,
    horizon=300.0,
    grid_points_per_dimension=15,
)


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


class TestCampaignSpec:
    def test_defaults_cover_all_four_simulable_protocols(self):
        spec = CampaignSpec()
        assert spec.scenarios  # every registered preset
        assert {"xmac", "dmac", "lmac", "scpmac"} <= set(spec.protocols)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(scenarios=("no-such-preset",))

    def test_horizon_past_the_event_budget_rejected_up_front(self):
        with pytest.raises(ConfigurationError, match="campaign.horizon 1e\\+20 .*'high-rate'"):
            CampaignSpec(scenarios=("high-rate",), horizon=1e20)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_horizon_refused_by_name(self, value):
        # Before the event-budget check, which would call nan "too long".
        with pytest.raises(ConfigurationError, match=f"^horizon must be finite, got {value!r}$"):
            CampaignSpec(scenarios=("paper-default",), horizon=value)

    @pytest.mark.parametrize("field", ["energy_tolerance", "delay_tolerance"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_tolerance_refused_by_name(self, field, value):
        # A nan tolerance would make every cell's check fail silently.
        with pytest.raises(ConfigurationError, match=f"^{field} must be finite, got {value!r}$"):
            CampaignSpec(scenarios=("paper-default",), **{field: value})

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
                CampaignSpec(scenarios=("oversized-ring",), horizon=600.0)
        finally:
            unregister_scenario_preset("oversized-ring")

    def test_analytical_only_protocol_rejected_up_front(self, analytical_only_protocol):
        # A behaviour-less protocol cannot be validated by simulation;
        # discovering that after the solve stage would abort the campaign,
        # so the spec refuses early.
        with pytest.raises(ConfigurationError, match="no simulated behaviour"):
            CampaignSpec(protocols=(analytical_only_protocol, "xmac"))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replications": 0},
            {"horizon": 0.0},
            {"confidence": 1.0},
            {"energy_tolerance": 0.0},
            {"min_delivery_ratio": 1.5},
            {"scenarios": ("paper-default", "paper-default")},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CampaignSpec(**kwargs)


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
        return CampaignSpec(scenarios=("paper-default",), protocols=("xmac",), **overrides)

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


class TestRunCampaign:
    def test_small_campaign_end_to_end(self):
        spec = CampaignSpec(**FAST_SPEC)
        result = run_campaign(spec, build_runner(workers=1, use_cache=False))
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.feasible
        assert cell.seeds == tuple(
            replication_seed(spec.base_seed, "paper-default", "xmac", r)
            for r in range(spec.replications)
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
            spec = CampaignSpec(
                scenarios=("campaign-infeasible-test",),
                protocols=("xmac",),
                replications=1,
                grid_points_per_dimension=15,
            )
            result = run_campaign(spec, build_runner(workers=1, use_cache=False))
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
        spec = CampaignSpec(
            scenarios=("paper-default",),
            protocols=("xmac", "lmac"),
            replications=3,
            horizon=300.0,
            grid_points_per_dimension=15,
        )
        serial = run_campaign(spec, build_runner(workers=1, use_cache=False))
        pooled = run_campaign(spec, build_runner(workers=3, use_cache=False))
        assert campaign_to_json(serial) == campaign_to_json(pooled)
        # At the Nash point the model agrees with the simulator in every cell.
        assert len(serial.feasible_cells) == 2 and serial.passed

    def test_pooled_campaign_forks_one_pool_and_leaves_no_worker(self, monkeypatch):
        sizes = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", CountingPool)
        spec = CampaignSpec(**{**FAST_SPEC, "protocols": ("xmac", "lmac")})
        pooled = run_campaign(spec, build_runner(workers=2, use_cache=False))
        # The solve and the replication stage share one two-worker pool.
        assert sizes == [2]
        assert multiprocessing.active_children() == []
        serial = run_campaign(spec, build_runner(workers=1, use_cache=False))
        assert campaign_to_json(pooled) == campaign_to_json(serial)

    def test_artifact_excludes_runner_identity(self):
        spec = CampaignSpec(**FAST_SPEC)
        result = run_campaign(spec, build_runner(workers=1, use_cache=False))
        payload = campaign_to_json(result)
        assert "workers" not in payload
        assert "seconds" not in payload
