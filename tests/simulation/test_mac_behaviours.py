"""Tests for the scalar reference's MAC behaviours."""

from __future__ import annotations

import numpy as np
import pytest

from deployment_fixtures import chain_deployment
from repro.exceptions import SimulationError
from repro.network.radio import cc2420
from repro.network.topology import RingTopology
from repro.protocols import DMACModel, LMACModel, SCPMACModel, XMACModel
from repro.scenario import Scenario
from repro.simulation.batched import kernels
from scalar_reference.channel import Channel
from scalar_reference.energy import EnergyAccount
from scalar_reference.mac import (
    DMACSimBehaviour,
    LMACSimBehaviour,
    SCPMACSimBehaviour,
    XMACSimBehaviour,
    available_mac_protocols,
    behaviour_for_model,
    next_occurrence,
)
from scalar_reference.node import SensorNode


@pytest.fixture
def scenario() -> Scenario:
    return Scenario(topology=RingTopology(depth=3, density=4), sampling_rate=1.0 / 300.0)


def make_node(node_id, ring, parent, phase=0.0):
    node = SensorNode(
        node_id=node_id, ring=ring, parent=parent, energy=EnergyAccount(radio=cc2420())
    )
    node.phase = phase
    return node


class TestNextOccurrence:
    def test_before_offset_returns_offset(self):
        assert next_occurrence(0.0, 1.0, 0.4) == 0.4

    def test_mid_cycle_rounds_up(self):
        assert next_occurrence(1.5, 1.0, 0.4) == pytest.approx(2.4)

    def test_exact_hit_is_returned(self):
        assert next_occurrence(2.4, 1.0, 0.4) == pytest.approx(2.4)

    def test_invalid_period_rejected(self):
        with pytest.raises(SimulationError):
            next_occurrence(0.0, 0.0, 0.0)


class TestBehaviourFactory:
    def test_maps_models_to_behaviours(self, scenario):
        rng = np.random.default_rng(0)
        assert isinstance(
            behaviour_for_model(XMACModel(scenario), {"wakeup_interval": 0.5}, rng),
            XMACSimBehaviour,
        )
        assert isinstance(
            behaviour_for_model(DMACModel(scenario), {"frame_length": 1.0}, rng),
            DMACSimBehaviour,
        )
        lmac = LMACModel(scenario)
        assert isinstance(
            behaviour_for_model(lmac, {"slot_length": 0.02, "slot_count": 9.0}, rng),
            LMACSimBehaviour,
        )
        assert isinstance(
            behaviour_for_model(SCPMACModel(scenario), {"poll_interval": 0.5}, rng),
            SCPMACSimBehaviour,
        )

    def test_all_builtin_protocols_have_simulators(self):
        # The reference's own map and the production kernel map agree.
        assert available_mac_protocols() == ["dmac", "lmac", "scpmac", "xmac"]
        assert kernels.available_mac_protocols() == available_mac_protocols()

    def test_unsupported_model_rejected_with_simulable_names(
        self, scenario, analytical_only_model_class
    ):
        with pytest.raises(SimulationError, match="scpmac"):
            behaviour_for_model(
                analytical_only_model_class(scenario),
                {"interval": 0.5},
                np.random.default_rng(0),
            )


class TestXMACBehaviour:
    def test_hop_waits_for_receiver_poll(self, scenario):
        model = XMACModel(scenario)
        behaviour = XMACSimBehaviour(model, {"wakeup_interval": 0.5}, np.random.default_rng(1))
        deployment = chain_deployment(depth=3)
        channel = Channel(deployment)
        sender = make_node(2, 2, 1)
        receiver = make_node(1, 1, 0, phase=0.3)
        outcome = behaviour.plan_hop(sender, receiver, now=0.0, channel=channel, overhearers=[])
        # The strobe train covers the receiver's poll at t = 0.3.
        assert outcome.completion > 0.3
        assert outcome.completion < 0.3 + 0.1
        assert sender.energy.total_active_time() > 0
        assert receiver.energy.total_active_time() > 0

    def test_periodic_energy_scales_with_polls(self, scenario):
        model = XMACModel(scenario)
        behaviour = XMACSimBehaviour(model, {"wakeup_interval": 0.5}, np.random.default_rng(1))
        node = make_node(2, 2, 1)
        behaviour.charge_periodic_energy(node, horizon=100.0)
        expected_polls = int(100.0 / 0.5)
        poll_energy = node.energy.breakdown()["poll"]
        per_poll = (model.scenario.radio.wakeup_time + model.scenario.radio.carrier_sense_time)
        assert poll_energy == pytest.approx(expected_polls * per_poll * cc2420().power_rx)

    def test_overhearers_pay_only_if_poll_falls_in_strobe(self, scenario):
        model = XMACModel(scenario)
        behaviour = XMACSimBehaviour(model, {"wakeup_interval": 0.5}, np.random.default_rng(1))
        deployment = chain_deployment(depth=3)
        channel = Channel(deployment)
        sender = make_node(2, 2, 1)
        receiver = make_node(1, 1, 0, phase=0.25)
        listener = make_node(3, 3, 2, phase=0.1)  # polls at 0.1 < 0.25: overhears
        sleeper = make_node(4, 3, 2, phase=0.45)  # polls after the exchange finishes
        behaviour.plan_hop(sender, receiver, 0.0, channel, [listener, sleeper])
        assert listener.energy.total_active_time() > 0
        assert sleeper.energy.total_active_time() == 0.0


class TestDMACBehaviour:
    def test_hop_starts_in_senders_tx_slot(self, scenario):
        model = DMACModel(scenario)
        behaviour = DMACSimBehaviour(model, {"frame_length": 1.0}, np.random.default_rng(1))
        deployment = chain_deployment(depth=3)
        channel = Channel(deployment)
        sender = make_node(3, 3, 2, phase=behaviour.assign_phase(make_node(3, 3, 2)))
        receiver = make_node(2, 2, 1)
        outcome = behaviour.plan_hop(sender, receiver, now=0.2, channel=channel, overhearers=[])
        assert outcome.transmission_start >= next_occurrence(0.2, 1.0, sender.phase)

    def test_staggered_phases_decrease_toward_outer_rings(self, scenario):
        model = DMACModel(scenario)
        behaviour = DMACSimBehaviour(model, {"frame_length": 1.0}, np.random.default_rng(1))
        ring1 = behaviour.assign_phase(make_node(1, 1, 0))
        ring3 = behaviour.assign_phase(make_node(3, 3, 2))
        assert ring3 < ring1

    def test_periodic_energy_counts_two_slots_per_frame(self, scenario):
        model = DMACModel(scenario)
        behaviour = DMACSimBehaviour(model, {"frame_length": 2.0}, np.random.default_rng(1))
        node = make_node(2, 2, 1)
        behaviour.charge_periodic_energy(node, horizon=200.0)
        expected = int(200.0 / 2.0) * 2.0 * model.slot_time
        assert node.energy.total_active_time() == pytest.approx(expected)


class TestSCPMACBehaviour:
    def test_all_nodes_share_the_synchronized_phase(self, scenario):
        model = SCPMACModel(scenario)
        behaviour = SCPMACSimBehaviour(model, {"poll_interval": 0.5}, np.random.default_rng(3))
        phases = {behaviour.assign_phase(make_node(i, 1, 0)) for i in range(1, 6)}
        assert len(phases) == 1  # synchronized channel polling
        assert 0.0 <= phases.pop() < 0.5

    def test_hop_waits_for_the_next_common_poll(self, scenario):
        model = SCPMACModel(scenario)
        behaviour = SCPMACSimBehaviour(model, {"poll_interval": 0.5}, np.random.default_rng(3))
        deployment = chain_deployment(depth=3)
        channel = Channel(deployment)
        phase = behaviour.assign_phase(make_node(2, 2, 1))
        sender = make_node(2, 2, 1, phase=phase)
        receiver = make_node(1, 1, 0, phase=phase)
        outcome = behaviour.plan_hop(sender, receiver, now=0.0, channel=channel, overhearers=[])
        epoch = next_occurrence(0.0, 0.5, phase)
        # The tone starts at the epoch; data follows the tone and the second
        # contention backoff.
        assert outcome.transmission_start >= epoch + 2.0 * model.sync_error
        assert outcome.completion < epoch + 0.1

    def test_periodic_costs_cover_polls_and_sync_exchange(self, scenario):
        model = SCPMACModel(scenario)
        behaviour = SCPMACSimBehaviour(model, {"poll_interval": 0.5}, np.random.default_rng(3))
        node = make_node(2, 2, 1)
        behaviour.charge_periodic_energy(node, horizon=120.0)
        breakdown = node.energy.breakdown()
        radio = scenario.radio
        per_poll = radio.wakeup_time + radio.carrier_sense_time
        assert breakdown["poll"] == pytest.approx(
            int(120.0 / 0.5) * per_poll * radio.power_rx
        )
        assert breakdown["sync-tx"] == pytest.approx(
            int(120.0 / model.sync_period)
            * scenario.packets.sync_airtime(radio)
            * radio.power_tx
        )
        # Every neighbour's SYNC frame is received once per sync period.
        assert breakdown["sync-rx"] == pytest.approx(
            scenario.density * breakdown["sync-tx"] / radio.power_tx * radio.power_rx
        )

    def test_every_overhearer_samples_half_the_tone(self, scenario):
        model = SCPMACModel(scenario)
        behaviour = SCPMACSimBehaviour(model, {"poll_interval": 0.5}, np.random.default_rng(3))
        deployment = chain_deployment(depth=3)
        channel = Channel(deployment)
        phase = behaviour.assign_phase(make_node(2, 2, 1))
        sender = make_node(2, 2, 1, phase=phase)
        receiver = make_node(1, 1, 0, phase=phase)
        listeners = [make_node(3, 3, 2, phase=phase), make_node(4, 3, 2, phase=phase)]
        behaviour.plan_hop(sender, receiver, 0.0, channel, listeners)
        # Synchronized polling: the whole neighbourhood is awake at the
        # epoch, so every overhearer pays exactly half the tone.
        for listener in listeners:
            assert listener.energy.breakdown()["overhear"] == pytest.approx(
                0.5 * 2.0 * model.sync_error * scenario.radio.power_rx
            )

    def test_busy_epoch_retries_at_the_next_poll(self, scenario):
        model = SCPMACModel(scenario)
        behaviour = SCPMACSimBehaviour(model, {"poll_interval": 0.5}, np.random.default_rng(3))
        deployment = chain_deployment(depth=3)
        channel = Channel(deployment)
        phase = behaviour.assign_phase(make_node(2, 2, 1))
        epoch = next_occurrence(0.0, 0.5, phase)
        # Another transmission occupies the sender's neighbourhood across
        # the whole first epoch: the contention is lost and the hop moves
        # to the next synchronized poll.
        channel.reserve(sender=1, start=0.0, duration=epoch + 0.01)
        sender = make_node(2, 2, 1, phase=phase)
        receiver = make_node(1, 1, 0, phase=phase)
        outcome = behaviour.plan_hop(sender, receiver, 0.0, channel, [])
        assert outcome.transmission_start >= epoch + 0.5
        assert channel.deferrals >= 1


class TestLMACBehaviour:
    def test_hop_waits_for_own_slot(self, scenario):
        model = LMACModel(scenario)
        params = {"slot_length": 0.02, "slot_count": float(model.min_slot_count)}
        behaviour = LMACSimBehaviour(model, params, np.random.default_rng(1))
        deployment = chain_deployment(depth=3)
        channel = Channel(deployment)
        sender = make_node(2, 2, 1, phase=0.04)
        receiver = make_node(1, 1, 0)
        outcome = behaviour.plan_hop(sender, receiver, now=0.0, channel=channel, overhearers=[])
        assert outcome.transmission_start >= 0.04

    def test_periodic_energy_has_listen_and_control_tx(self, scenario):
        model = LMACModel(scenario)
        params = {"slot_length": 0.02, "slot_count": float(model.min_slot_count)}
        behaviour = LMACSimBehaviour(model, params, np.random.default_rng(1))
        node = make_node(2, 2, 1)
        behaviour.charge_periodic_energy(node, horizon=100.0)
        breakdown = node.energy.breakdown()
        assert breakdown["control-listen"] > 0
        assert breakdown["control-tx"] > 0

    def test_slot_phase_is_a_valid_slot_index(self, scenario):
        model = LMACModel(scenario)
        params = {"slot_length": 0.02, "slot_count": float(model.min_slot_count)}
        behaviour = LMACSimBehaviour(model, params, np.random.default_rng(5))
        for _ in range(20):
            phase = behaviour.assign_phase(make_node(2, 2, 1))
            index = phase / 0.02
            assert index == pytest.approx(round(index))
            assert 0 <= round(index) < model.min_slot_count
