"""Property-based invariants of the array-batched replication engine.

Four families, per the batched-engine contract:

* conservation — delivered/dropped packets never exceed the offered load;
* accounting — per-state energy accumulators (RX/TX seconds, periodic
  rows, channel counters) are non-negative under direct kernel driving;
* determinism — campaign artifacts are byte-identical across worker
  counts, and runs are bit-identical to the scalar reference
  (``tests/scalar_reference/``) at fuzzed seeds;
* edges — R=0, R=1 and sub-duty-cycle horizons for the DMAC and SCP-MAC
  kernels added by the engine-completion PR.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ExperimentSpec, run
from repro.exceptions import SimulationError
from repro.network.deployment import ring_deployment
from repro.network.topology import RingTopology
from repro.protocols.registry import create_protocol
from repro.scenario import Scenario
from repro.simulation import SimulationConfig, simulate_protocol
from repro.simulation.batched import batch_kernel_for, simulate_protocol_batched
from repro.simulation.batched.engine import ReplicationState
from scalar_reference import simulate_scalar

PROTOCOL_PARAMS = {
    "xmac": {"wakeup_interval": 0.3},
    "dmac": {"frame_length": 1.0},
    "lmac": {"slot_length": 0.02, "slot_count": 9.0},
    "scpmac": {"poll_interval": 0.3},
}
PROTOCOLS = tuple(sorted(PROTOCOL_PARAMS))
NEW_KERNEL_PROTOCOLS = ("dmac", "scpmac")

SIM_SETTINGS = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _model(protocol: str, period: float = 30.0):
    scenario = Scenario(
        topology=RingTopology(depth=3, density=4), sampling_rate=1.0 / period
    )
    return create_protocol(protocol, scenario)


def _batched(protocol, seed, horizon, period=30.0):
    model = _model(protocol, period)
    config = SimulationConfig(horizon=horizon, seed=seed)
    return simulate_protocol(model, PROTOCOL_PARAMS[protocol], config)


class TestPacketConservation:
    @SIM_SETTINGS
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        horizon=st.sampled_from((40.0, 90.0, 150.0)),
        period=st.sampled_from((15.0, 30.0, 60.0)),
    )
    def test_delivered_and_dropped_never_exceed_offered(
        self, protocol, seed, horizon, period
    ):
        result = _batched(protocol, seed, horizon, period)
        assert 0 <= result.delivered_packets <= result.generated_packets
        assert 0 <= result.dropped_packets
        # In-flight packets may remain queued at the horizon, so the two
        # terminal counters bound the offered load from below, never above.
        assert result.delivered_packets + result.dropped_packets <= result.generated_packets
        assert 0.0 <= result.delivery_ratio <= 1.0


class TestEnergyAccounting:
    @SIM_SETTINGS
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        hops=st.integers(min_value=1, max_value=40),
    )
    def test_direct_kernel_driving_keeps_accumulators_non_negative(
        self, protocol, seed, hops
    ):
        # Drive the kernel's hop planner directly against a hand-built
        # ReplicationState — the engine-independent accounting invariant.
        model = _model(protocol)
        kernel = batch_kernel_for(model)(model, PROTOCOL_PARAMS[protocol])
        rng = np.random.default_rng(seed)
        deployment = ring_deployment(depth=3, density=4, seed=seed)
        rings = deployment.ring.tolist()
        parents = deployment.parent.tolist()
        is_sink = [p < 0 for p in parents]
        phases = kernel.assign_phases(rng, len(rings), rings, is_sink)
        interference = []
        overhearers = []
        for index, parent in enumerate(parents):
            neighbours = deployment.neighbours_of(index)
            interference.append((index,) + tuple(neighbours))
            if is_sink[index]:
                overhearers.append(())
            else:
                overhearers.append(
                    tuple(n for n in neighbours if n not in (parent, 0))
                )
        state = ReplicationState(rng, phases, rings, interference, overhearers)
        plan = kernel.make_hop_planner(state)
        senders = [i for i in range(len(rings)) if not is_sink[i]]
        now = 0.0
        for hop in range(hops):
            sender = senders[hop % len(senders)]
            now = plan(sender, parents[sender], now)
        assert state.transmissions == hops
        assert state.deferrals >= 0
        assert all(value >= 0.0 for value in state.rx)
        assert all(value >= 0.0 for value in state.tx)
        assert all(value >= 0.0 for value in state.busy_until)
        for is_tx, seconds in kernel.periodic_seconds(150.0):
            assert isinstance(is_tx, bool)
            assert seconds >= 0.0

    @SIM_SETTINGS
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_node_powers_at_least_sleep_floor(self, protocol, seed):
        result = _batched(protocol, seed, horizon=90.0)
        model = _model(protocol)
        sleep = model.scenario.radio.power_sleep
        # Active states cost at least as much as sleeping, so average power
        # can never fall below the all-sleep floor (nor go negative).
        for power in result.node_power.values():
            assert power >= sleep > 0.0


class TestDeterminism:
    @SIM_SETTINGS
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        horizon=st.sampled_from((40.0, 90.0, 150.0)),
    )
    def test_scalar_and_batched_bit_identical(self, protocol, seed, horizon):
        model = _model(protocol)
        params = PROTOCOL_PARAMS[protocol]
        config = SimulationConfig(horizon=horizon, seed=seed)
        scalar = simulate_scalar(model, params, config)
        batched = simulate_protocol(model, params, config)
        assert scalar.node_power == batched.node_power
        assert scalar.ring_power == batched.ring_power
        assert scalar.delays_by_ring == batched.delays_by_ring
        assert scalar.as_dict() == batched.as_dict()

    @pytest.mark.slow
    def test_campaign_bytes_identical_across_worker_counts(self):
        from repro.runtime.batch import build_runner

        spec = (
            ExperimentSpec.experiment("campaign")
            .with_scenarios("high-rate")
            .with_protocols(*NEW_KERNEL_PROTOCOLS)
            .with_campaign(replications=2, horizon=150.0)
            .with_solver(grid_points=12)
        )
        artifacts = []
        for workers in (1, 2):
            runner = build_runner(workers=workers, use_cache=False)
            result = run(spec, runner=runner).raw
            artifacts.append(json.dumps(result.as_dict(), sort_keys=True))
        assert artifacts[0] == artifacts[1]


class TestNewKernelEdges:
    @pytest.mark.parametrize("protocol", NEW_KERNEL_PROTOCOLS)
    def test_zero_replications_raise(self, protocol):
        with pytest.raises(SimulationError, match="at least one replication"):
            simulate_protocol_batched(
                _model(protocol), PROTOCOL_PARAMS[protocol], []
            )

    @pytest.mark.parametrize("protocol", NEW_KERNEL_PROTOCOLS)
    def test_single_replication_matches_scalar(self, protocol):
        model = _model(protocol)
        params = PROTOCOL_PARAMS[protocol]
        config = SimulationConfig(horizon=150.0, seed=5)
        (batched,) = simulate_protocol_batched(model, params, [config])
        scalar = simulate_scalar(model, params, config)
        assert scalar.as_dict() == batched.as_dict()

    @pytest.mark.parametrize("protocol", NEW_KERNEL_PROTOCOLS)
    def test_sub_duty_cycle_horizon(self, protocol):
        # Shorter than one frame (DMAC, 1 s) / poll interval (SCP-MAC,
        # 300 ms): zero periodic events fit and (with a quiet traffic
        # period) no packet is generated, so every node idles at exactly
        # the sleep power — on both drivers.
        model = _model(protocol, period=1.0e7)
        params = PROTOCOL_PARAMS[protocol]
        sleep = model.scenario.radio.power_sleep
        results = []
        for simulate in (simulate_scalar, simulate_protocol):
            result = simulate(model, params, SimulationConfig(horizon=0.05, seed=3))
            assert result.generated_packets == 0
            assert set(result.node_power.values()) == {sleep}
            results.append(result)
        assert results[0].node_power == results[1].node_power
