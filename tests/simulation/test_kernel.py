"""Duty-cycle kernel: state-machine edge cases and trace guarantees.

The kernel refactor promises two things beyond unit behaviour: (1) the
three pre-kernel simulators produce *bit-identical* traces at the same seed
(pinned against golden values captured before the refactor), and (2) every
kernel transition — empty wakeup, contention collision, slot-overflow
retry — is exercised somewhere deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from deployment_fixtures import chain_deployment
from repro.exceptions import SimulationError
from repro.network.deployment import ring_deployment
from repro.network.radio import cc2420
from repro.network.topology import RingTopology
from repro.protocols import DMACModel, LMACModel, SCPMACModel, XMACModel
from repro.scenario import Scenario
from repro.simulation import SimulationConfig, simulate_protocol
from scalar_reference import EnergyAccount, SensorNode, simulate_scalar
from scalar_reference.mac import (
    DMACSimBehaviour,
    KernelState,
    MediumGrant,
    PeriodicCharge,
)


@pytest.fixture
def scenario() -> Scenario:
    return Scenario(topology=RingTopology(depth=3, density=4), sampling_rate=1.0 / 120.0)


def protocol_cases(scenario):
    """The four (name, model, params) simulation cases of the kernel tests."""
    return [
        ("xmac", XMACModel(scenario), {"wakeup_interval": 0.3}),
        ("dmac", DMACModel(scenario), {"frame_length": 1.0}),
        ("lmac", LMACModel(scenario), {"slot_length": 0.02, "slot_count": 9.0}),
        ("scpmac", SCPMACModel(scenario), {"poll_interval": 0.3}),
    ]


def make_node(node_id, ring, parent, phase=0.0):
    node = SensorNode(
        node_id=node_id, ring=ring, parent=parent, energy=EnergyAccount(radio=cc2420())
    )
    node.phase = phase
    return node


# Captured from the pre-kernel simulators (commit 164c580) at
# horizon=600, seed=11 on the fixture scenario: the kernel refactor must
# reproduce these traces bit for bit (``float.hex`` round-trips exactly).
GOLDEN_TRACES = {
    "xmac": {
        "system_energy": "0x1.c14dcc779990cp-10",
        "bottleneck_ring_energy": "0x1.5586e5b44ef19p-10",
        "max_ring_delay": "0x1.1b0eef0a04df5p-1",
        "counters": (168, 168, 410, 5),
        "node_power": {
            1: "0x1.7a1328119099fp-10",
            2: "0x1.4ab31429c64a0p-10",
            3: "0x1.a00f1c3c96a2ep-11",
            36: "0x1.87bbd50187c9dp-11",
        },
    },
    "dmac": {
        "system_energy": "0x1.1b85e745fce59p-10",
        "bottleneck_ring_energy": "0x1.1b1a93a7cc12ep-10",
        "max_ring_delay": "0x1.5e6400a1a54bcp-1",
        "counters": (163, 163, 397, 5),
        "node_power": {
            1: "0x1.1b03b80c20c81p-10",
            2: "0x1.1b2501291894fp-10",
            3: "0x1.1abbae23fa08fp-10",
            36: "0x1.1563f98786aacp-10",
        },
    },
    "lmac": {
        "system_energy": "0x1.103873942dfa0p-7",
        "bottleneck_ring_energy": "0x1.103703c899d23p-7",
        "max_ring_delay": "0x1.27bb5c8ceb600p-2",
        "counters": (166, 166, 408, 0),
        "node_power": {
            1: "0x1.103873942dfa0p-7",
            2: "0x1.10362ba0d1c89p-7",
            3: "0x1.1037444c95bddp-7",
            36: "0x1.0fe1c5747e9f4p-7",
        },
    },
    "scpmac": {
        "system_energy": "0x1.789c6ab7a73dbp-11",
        "bottleneck_ring_energy": "0x1.75d6c8518aa14p-11",
        "max_ring_delay": "0x1.7ca4f1f7bbfdbp-1",
        "counters": (162, 162, 395, 0),
        "node_power": {
            1: "0x1.738576ddd7460p-11",
            2: "0x1.75e88c8064735p-11",
            3: "0x1.7550b330478dfp-11",
            36: "0x1.561819d6bc9d6p-11",
        },
    },
}

#: The scalar reference driver and the production (batched) path must both
#: reproduce the goldens: the batched engine dispatches all four protocols to
#: array kernels — the trace is the same trace.
DRIVERS = pytest.mark.parametrize(
    "simulate", (simulate_scalar, simulate_protocol), ids=("scalar", "batched")
)


# Pinned edge-path traces (captured from the scalar engine at the settings
# below): a contended SCP-MAC run whose lost epochs retry at the next poll
# (193 deferrals), a contended X-MAC run whose collisions resolve by
# backoff-deferral (108 deferrals), and a contended DMAC run whose
# exchanges overflow the transmit slot and retry next frame (191
# deferrals), each at sampling_rate=1/20, horizon=300, seed=7 on the
# depth-3/density-4 ring.
GOLDEN_EDGE_TRACES = {
    "dmac-slot-overflow": {
        "protocol": "dmac",
        "params": {"frame_length": 1.0},
        "system_energy": "0x1.3ddc38a384a2dp-10",
        "bottleneck_ring_energy": "0x1.3d4bf300ac1dap-10",
        "max_ring_delay": "0x1.17e77836f1104p+0",
        "counters": (486, 486, 1189, 191),
        "node_power": {
            1: "0x1.3c5eba840d786p-10",
            2: "0x1.3d3fade43b0ecp-10",
            3: "0x1.3db52af6e34c9p-10",
            36: "0x1.1a8e20b1c938ap-10",
        },
    },
    "scpmac-lost-epoch": {
        "protocol": "scpmac",
        "params": {"poll_interval": 0.5},
        "system_energy": "0x1.bbdfc666290d2p-11",
        "bottleneck_ring_energy": "0x1.ba77ca53ef8f8p-11",
        "max_ring_delay": "0x1.8d4c9ed81bf42p+0",
        "counters": (487, 487, 1191, 193),
        "node_power": {
            1: "0x1.b8d7eeae58c09p-11",
            2: "0x1.b999f80b2877bp-11",
            3: "0x1.bb8d7c3013f89p-11",
            36: "0x1.f5ea7958ba18ap-12",
        },
    },
    "xmac-contention-defer": {
        "protocol": "xmac",
        "params": {"wakeup_interval": 0.3},
        "system_energy": "0x1.9cc68af77e2acp-8",
        "bottleneck_ring_energy": "0x1.2d931e65fe5dfp-8",
        "max_ring_delay": "0x1.2ca008bc3b6fbp-1",
        "counters": (485, 485, 1186, 108),
        "node_power": {
            1: "0x1.5fe2ecdc882c3p-8",
            2: "0x1.9cc68af77e2acp-8",
            3: "0x1.ebc92fdc1543fp-9",
            36: "0x1.1dc4d2f293a00p-10",
        },
    },
}

# Zero-traffic periodic-charge paths: with no packets the only energy is
# the closed-form PeriodicCharge table, so every node lands on the same
# pinned power (horizon=50, seed=3, sampling once per 1e7 s).  X-MAC and
# SCP-MAC coincide because both charge one poll per wake-up interval.
GOLDEN_QUIET_POWERS = {
    "xmac": "0x1.4d81479e5e778p-11",
    "dmac": "0x1.1441d81bf3413p-10",
    "lmac": "0x1.0f22d02c9a62ep-7",
    "scpmac": "0x1.4d81479e5e778p-11",
}


def _check_golden(result, golden):
    assert result.system_energy == float.fromhex(golden["system_energy"])
    assert result.bottleneck_ring_energy == float.fromhex(
        golden["bottleneck_ring_energy"]
    )
    assert result.max_ring_delay() == float.fromhex(golden["max_ring_delay"])
    assert (
        result.generated_packets,
        result.delivered_packets,
        result.channel_transmissions,
        result.channel_deferrals,
    ) == golden["counters"]
    for node_id, expected in golden["node_power"].items():
        assert result.node_power[node_id] == float.fromhex(expected)


class TestTraceCompatibility:
    @DRIVERS
    @pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
    def test_kernel_reproduces_pre_refactor_traces_bit_identically(
        self, scenario, name, simulate
    ):
        model, params = {
            case[0]: (case[1], case[2]) for case in protocol_cases(scenario)
        }[name]
        result = simulate(model, params, SimulationConfig(horizon=600.0, seed=11))
        _check_golden(result, GOLDEN_TRACES[name])

    @DRIVERS
    @pytest.mark.parametrize("name", sorted(GOLDEN_EDGE_TRACES))
    def test_edge_path_traces_are_pinned(self, name, simulate):
        golden = GOLDEN_EDGE_TRACES[name]
        contended = Scenario(
            topology=RingTopology(depth=3, density=4), sampling_rate=1.0 / 20.0
        )
        model = {
            case[0]: case[1] for case in protocol_cases(contended)
        }[golden["protocol"]]
        result = simulate(model, golden["params"], SimulationConfig(horizon=300.0, seed=7))
        # The edge path actually fired: deferrals in the pinned counters.
        assert golden["counters"][3] > 0
        _check_golden(result, golden)

    @DRIVERS
    @pytest.mark.parametrize("name", sorted(GOLDEN_QUIET_POWERS))
    def test_zero_traffic_periodic_charges_are_pinned(self, name, simulate):
        quiet = Scenario(
            topology=RingTopology(depth=3, density=4), sampling_rate=1.0 / 1.0e7
        )
        model, params = {
            case[0]: (case[1], case[2]) for case in protocol_cases(quiet)
        }[name]
        result = simulate(model, params, SimulationConfig(horizon=50.0, seed=3))
        assert result.generated_packets == 0
        expected = float.fromhex(GOLDEN_QUIET_POWERS[name])
        assert set(result.node_power.values()) == {expected}


class TestSeedDeterminism:
    @pytest.mark.parametrize(
        "name", ["xmac", "dmac", "lmac", "scpmac"]
    )
    def test_two_runs_at_the_same_seed_are_identical(self, scenario, name):
        model, params = {
            case[0]: (case[1], case[2]) for case in protocol_cases(scenario)
        }[name]
        config = SimulationConfig(horizon=400.0, seed=9)
        first = simulate_protocol(model, params, config)
        second = simulate_protocol(model, params, config)
        # Exact float equality on every per-node power — not approx: the
        # determinism guarantee the campaign artifacts build on.
        assert first.node_power == second.node_power
        assert first.delays_by_ring == second.delays_by_ring
        assert first.as_dict() == second.as_dict()

    @pytest.mark.parametrize("name", ["xmac", "scpmac"])
    def test_different_seeds_diverge(self, scenario, name):
        model, params = {
            case[0]: (case[1], case[2]) for case in protocol_cases(scenario)
        }[name]
        first = simulate_protocol(model, params, SimulationConfig(horizon=400.0, seed=1))
        second = simulate_protocol(model, params, SimulationConfig(horizon=400.0, seed=2))
        assert first.node_power != second.node_power


class TestEmptyWakeups:
    """Zero pending packets at wake-up: only the periodic table is charged."""

    @pytest.mark.parametrize("name", ["xmac", "dmac", "lmac", "scpmac"])
    def test_traffic_free_run_charges_exactly_the_periodic_table(self, name):
        quiet = Scenario(
            topology=RingTopology(depth=3, density=4), sampling_rate=1.0 / 1.0e7
        )
        model, params = {
            case[0]: (case[1], case[2]) for case in protocol_cases(quiet)
        }[name]
        horizon = 50.0
        result = simulate_protocol(model, params, SimulationConfig(horizon=horizon, seed=3))
        assert result.generated_packets == 0
        assert result.delivered_packets == 0
        assert result.delivery_ratio == 0.0
        with pytest.raises(SimulationError):
            result.max_ring_delay()
        # Every node's power equals the closed-form periodic cost: the
        # kernel charged nothing but the PeriodicCharge table.
        from scalar_reference.mac.factory import behaviour_for_model

        behaviour = behaviour_for_model(model, params, np.random.default_rng(0))
        reference = make_node(1, 1, 0)
        behaviour.charge_periodic_energy(reference, horizon)
        expected = reference.energy.average_power(horizon)
        for power in result.node_power.values():
            assert power == expected


class TestContentionCollision:
    """Two same-slot contenders: one defers behind the other's reservation."""

    def test_second_contender_defers_behind_the_first(self, scenario):
        model = DMACModel(scenario)
        behaviour = DMACSimBehaviour(model, {"frame_length": 1.0}, np.random.default_rng(2))
        deployment = ring_deployment(depth=2, density=6, seed=3)
        from scalar_reference.channel import Channel

        channel = Channel(deployment)
        # Find two same-ring neighbours: they share the transmit slot and
        # sense each other's carrier.
        pair = None
        for node_id in deployment.node_ids:
            if deployment.ring_of[node_id] != 2:
                continue
            for neighbour in deployment.neighbours_of(node_id):
                if neighbour != 0 and deployment.ring_of.get(neighbour) == 2:
                    pair = (node_id, neighbour)
                    break
            if pair:
                break
        assert pair is not None, "deployment has no same-ring neighbour pair"
        nodes = {}
        for node_id in pair:
            node = make_node(node_id, 2, deployment.parent_of(node_id))
            node.phase = behaviour.assign_phase(node)
            nodes[node_id] = node
        receivers = {
            node_id: make_node(deployment.parent_of(node_id), 1, 0)
            for node_id in pair
        }
        first = behaviour.plan_hop(nodes[pair[0]], receivers[pair[0]], 0.0, channel, [])
        second = behaviour.plan_hop(nodes[pair[1]], receivers[pair[1]], 0.0, channel, [])
        assert channel.deferrals >= 1
        # The collision resolves by deferral, never by overlap.
        assert second.transmission_start >= first.completion


class TestSlotOverflowRetry:
    """The kernel's RETRY transition: an exchange that cannot complete in the
    current cycle (the ack would time out past the slot) moves whole to the
    next cycle."""

    def test_dmac_exchange_that_misses_its_slot_retries_next_frame(self, scenario):
        model = DMACModel(scenario)
        behaviour = DMACSimBehaviour(model, {"frame_length": 1.0}, np.random.default_rng(2))
        deployment = chain_deployment(depth=3)
        from scalar_reference.channel import Channel

        channel = Channel(deployment)
        sender = make_node(3, 3, 2)
        sender.phase = behaviour.assign_phase(sender)  # ring 3 transmits at offset 0
        receiver = make_node(2, 2, 1)
        # A neighbour's transmission blocks the medium for most of the slot:
        # contention + data + ack no longer fit before the slot boundary.
        channel.reserve(sender=2, start=0.0, duration=0.9 * model.slot_time)
        outcome = behaviour.plan_hop(sender, receiver, 0.0, channel, [])
        assert outcome.transmission_start >= sender.phase + 1.0  # next frame's slot
        assert channel.deferrals >= 1

    def test_scpmac_lost_epoch_retries_at_next_poll(self, scenario):
        model = SCPMACModel(scenario)
        from scalar_reference.mac import SCPMACSimBehaviour
        from scalar_reference.channel import Channel

        behaviour = SCPMACSimBehaviour(model, {"poll_interval": 0.5}, np.random.default_rng(4))
        deployment = chain_deployment(depth=3)
        channel = Channel(deployment)
        phase = behaviour.assign_phase(make_node(2, 2, 1))
        from scalar_reference.mac import next_occurrence

        epoch = next_occurrence(0.0, 0.5, phase)
        channel.reserve(sender=1, start=0.0, duration=epoch + 1e-3)
        sender = make_node(2, 2, 1, phase=phase)
        receiver = make_node(1, 1, 0, phase=phase)
        outcome = behaviour.plan_hop(sender, receiver, 0.0, channel, [])
        assert outcome.transmission_start >= epoch + 0.5


class TestKernelPrimitives:
    def test_periodic_charge_validates_its_fields(self):
        with pytest.raises(SimulationError):
            PeriodicCharge(state=KernelState.POLL, interval=0.0, duration=1.0)
        with pytest.raises(SimulationError):
            PeriodicCharge(state=KernelState.POLL, interval=1.0, duration=-1.0)
        with pytest.raises(SimulationError):
            PeriodicCharge(state=KernelState.POLL, interval=1.0, duration=1.0, multiplier=-1)

    def test_medium_grant_rejects_transmission_before_grant(self):
        with pytest.raises(SimulationError):
            MediumGrant(start=1.0, transmission_start=0.5)

    def test_charge_maps_states_onto_radio_modes(self, scenario):
        model = XMACModel(scenario)
        from scalar_reference.mac import XMACSimBehaviour

        behaviour = XMACSimBehaviour(model, {"wakeup_interval": 0.5}, np.random.default_rng(0))
        node = make_node(1, 1, 0)
        behaviour.charge(node, KernelState.TX_DATA, 0.0, 0.25)
        behaviour.charge(node, KernelState.CONTEND, 0.25, 0.5)
        from repro.network.radio import RadioMode

        assert node.energy.active_time[RadioMode.TX] == pytest.approx(0.25)
        assert node.energy.active_time[RadioMode.RX] == pytest.approx(0.5)
        # Default activity labels fall back to the state value.
        assert set(node.energy.breakdown()) == {"tx-data", "contend"}
