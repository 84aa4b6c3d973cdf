"""Tests for the simulation driver."""

from __future__ import annotations

import random

import numpy as np
import pytest

from deployment_fixtures import chain_deployment
from repro.exceptions import SimulationError
from repro.network.topology import RingTopology
from repro.protocols import DMACModel, XMACModel
from repro.scenario import Scenario
from repro.simulation import SimulationConfig, simulate_protocol
from repro.simulation.batched import engine as batched_engine
from repro.simulation.runner import generation_lower_bound
from scalar_reference import Simulator, simulate_scalar


@pytest.fixture
def scenario() -> Scenario:
    return Scenario(topology=RingTopology(depth=3, density=4), sampling_rate=1.0 / 120.0)


class TestSimulationRunner:
    def test_all_generated_packets_are_delivered_under_light_load(self, scenario):
        model = XMACModel(scenario)
        result = simulate_protocol(
            model, {"wakeup_interval": 0.3}, SimulationConfig(horizon=600.0, seed=2)
        )
        assert result.generated_packets > 50
        assert result.delivery_ratio == pytest.approx(1.0)
        assert result.dropped_packets == 0

    def test_results_are_reproducible_for_a_fixed_seed(self, scenario):
        model = XMACModel(scenario)
        config = SimulationConfig(horizon=300.0, seed=7)
        first = simulate_protocol(model, {"wakeup_interval": 0.3}, config)
        second = simulate_protocol(model, {"wakeup_interval": 0.3}, config)
        assert first.system_energy == pytest.approx(second.system_energy)
        assert first.max_ring_delay() == pytest.approx(second.max_ring_delay())
        assert first.generated_packets == second.generated_packets

    def test_different_seeds_give_different_traces(self, scenario):
        model = XMACModel(scenario)
        first = simulate_protocol(model, {"wakeup_interval": 0.3}, SimulationConfig(horizon=300.0, seed=1))
        second = simulate_protocol(model, {"wakeup_interval": 0.3}, SimulationConfig(horizon=300.0, seed=2))
        assert first.max_ring_delay() != pytest.approx(second.max_ring_delay(), rel=1e-6)

    def test_ring_powers_decrease_outward(self, scenario):
        model = XMACModel(scenario)
        result = simulate_protocol(
            model, {"wakeup_interval": 0.3}, SimulationConfig(horizon=600.0, seed=2)
        )
        assert result.ring_power[1] > result.ring_power[3]

    def test_delays_grow_with_source_ring(self, scenario):
        model = DMACModel(scenario)
        result = simulate_protocol(
            model, {"frame_length": 1.0}, SimulationConfig(horizon=900.0, seed=4)
        )
        ring_means = {ring: sum(v) / len(v) for ring, v in result.delays_by_ring.items() if v}
        assert ring_means[3] > ring_means[1]

    def test_explicit_deployment_is_used(self, scenario):
        model = XMACModel(scenario)
        deployment = chain_deployment(depth=3)
        result = simulate_protocol(
            model,
            {"wakeup_interval": 0.3},
            SimulationConfig(horizon=600.0, seed=2, deployment=deployment),
        )
        assert set(result.node_power) == {1, 2, 3}

    def test_shorter_wakeup_interval_lowers_delay_and_raises_idle_energy(self, scenario):
        model = XMACModel(scenario)
        fast = simulate_protocol(model, {"wakeup_interval": 0.1}, SimulationConfig(horizon=600.0, seed=2))
        slow = simulate_protocol(model, {"wakeup_interval": 1.0}, SimulationConfig(horizon=600.0, seed=2))
        assert fast.max_ring_delay() < slow.max_ring_delay()
        # Idle polling dominates at this traffic level, so the outer ring
        # (almost no forwarding) is strictly cheaper with a longer interval.
        assert fast.ring_power[3] > slow.ring_power[3]

    def test_summary_dictionary(self, scenario):
        model = XMACModel(scenario)
        result = simulate_protocol(model, {"wakeup_interval": 0.3}, SimulationConfig(horizon=300.0, seed=2))
        summary = result.as_dict()
        assert summary["protocol"] == "X-MAC"
        assert summary["delivered"] <= summary["generated"]

    def test_invalid_config_rejected(self):
        with pytest.raises(SimulationError):
            SimulationConfig(horizon=-1.0)
        with pytest.raises(SimulationError):
            SimulationConfig(generation_cutoff=0.0)
        with pytest.raises(SimulationError):
            SimulationConfig(queue_capacity=0)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_horizon_rejected_by_name(self, horizon):
        with pytest.raises(SimulationError, match="horizon must be finite"):
            SimulationConfig(horizon=horizon)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # NumPy would refuse a negative seed only once the run starts.
        with pytest.raises(SimulationError, match=f"seed must be an integer >= 0, got {seed!r}"):
            SimulationConfig(seed=seed)

    @pytest.mark.parametrize("field", ["queue_capacity", "max_events"])
    @pytest.mark.parametrize("value", [float("nan"), 2.5, 64.0, 0, -3, True, "64"])
    def test_counts_must_be_integers_of_at_least_one(self, field, value):
        with pytest.raises(SimulationError, match=f"{field} must be an integer >= 1"):
            SimulationConfig(**{field: value})

    def test_integer_counts_are_accepted(self):
        config = SimulationConfig(queue_capacity=1, max_events=np.int64(5))
        assert (config.queue_capacity, config.max_events) == (1, 5)

    def test_empty_result_guards(self, scenario):
        from repro.simulation.runner import SimulationResult

        empty = SimulationResult(protocol="X-MAC", parameters={}, horizon=10.0)
        with pytest.raises(SimulationError):
            _ = empty.system_energy
        with pytest.raises(SimulationError):
            empty.max_ring_delay()


def _built(*_args, **_kwargs):
    raise AssertionError("a packet-generation event was built")


class TestGenerationBudget:
    """A run whose packet generations alone exceed the event budget is refused
    with the event-budget error before either driver builds one of them."""

    def test_lower_bound_never_exceeds_the_scheduled_count(self):
        rng = random.Random(3)
        for _ in range(300):
            period = 10.0 ** rng.uniform(-3.0, 3.0)
            cutoff = period * rng.uniform(0.0, 500.0)
            bound = generation_lower_bound(1, period, cutoff)
            for offset in (0.0, rng.uniform(0.0, period), period):
                # The drivers' own loop: start at the offset, add the period.
                time, count = offset, 0
                while time < cutoff:
                    count += 1
                    time += period
                assert count - 2 <= bound <= count
        assert generation_lower_bound(7, 300.0, 9e19) == 7 * (10**9 - 1)

    def test_batched_driver_refuses_before_building(self, scenario, monkeypatch):
        monkeypatch.setattr(batched_engine, "heapify", _built)
        # 36 sources, one packet per 120 s, 2700 s of generation: > 500.
        config = SimulationConfig(horizon=3000.0, max_events=500)
        with pytest.raises(SimulationError, match=r"event budget exceeded \(500\)"):
            simulate_protocol(XMACModel(scenario), {"wakeup_interval": 0.3}, config)

    def test_scalar_driver_refuses_before_building(self, scenario, monkeypatch):
        monkeypatch.setattr(Simulator, "schedule_at", _built)
        config = SimulationConfig(horizon=3000.0, max_events=500)
        with pytest.raises(SimulationError, match=r"event budget exceeded \(500\)"):
            simulate_scalar(XMACModel(scenario), {"wakeup_interval": 0.3}, config)

    def test_hostile_horizon_is_refused_at_once(self, scenario):
        model = XMACModel(scenario)
        config = SimulationConfig(horizon=1e20)
        for simulate in (simulate_protocol, simulate_scalar):
            with pytest.raises(SimulationError, match=r"event budget exceeded \(2000000\)"):
                simulate(model, {"wakeup_interval": 0.3}, config)

    def test_a_run_within_the_budget_is_untouched(self, scenario):
        model = XMACModel(scenario)
        params = {"wakeup_interval": 0.3}
        reference = simulate_protocol(model, params, SimulationConfig(horizon=3000.0))
        assert (reference.generated_packets, reference.processed_events) == (806, 2777)
        # Exactly enough budget: the same run, to the last bit.
        exact = SimulationConfig(horizon=3000.0, max_events=2777)
        assert simulate_protocol(model, params, exact).as_dict() == reference.as_dict()
        # 756 generations are certain, 806 happen: a budget of 800 passes the
        # up-front check and is exceeded in the event loop, as before.
        with pytest.raises(SimulationError, match="likely runaway"):
            simulate_protocol(model, params, SimulationConfig(horizon=3000.0, max_events=800))
