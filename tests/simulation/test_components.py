"""Tests for the scalar reference's channel, node and packet bookkeeping."""

from __future__ import annotations

import pytest

from deployment_fixtures import chain_deployment
from repro.exceptions import SimulationError
from repro.network.radio import cc2420
from scalar_reference.channel import Channel
from scalar_reference.energy import EnergyAccount
from scalar_reference.node import SensorNode
from scalar_reference.packets import DataPacket, DeliveryRecord, PacketLog


def make_node(node_id=2, ring=2, parent=1, capacity=4) -> SensorNode:
    return SensorNode(
        node_id=node_id,
        ring=ring,
        parent=parent,
        energy=EnergyAccount(radio=cc2420()),
        queue_capacity=capacity,
    )


class TestChannel:
    def test_reservation_blocks_neighbourhood(self):
        deployment = chain_deployment(depth=3)
        channel = Channel(deployment)
        channel.reserve(sender=2, start=0.0, duration=1.0)
        # Nodes 1, 2, 3 are within range of node 2, node 0 (sink) is not.
        assert channel.is_busy(2, 0.5)
        assert channel.is_busy(1, 0.5)
        assert channel.is_busy(3, 0.5)
        assert not channel.is_busy(0, 0.5)

    def test_free_at_returns_end_of_reservation(self):
        deployment = chain_deployment(depth=2)
        channel = Channel(deployment)
        channel.reserve(sender=1, start=0.0, duration=2.0)
        assert channel.free_at(2, 1.0) == pytest.approx(2.0)
        assert channel.deferrals == 1

    def test_free_at_when_idle_returns_now(self):
        channel = Channel(chain_deployment(depth=2))
        assert channel.free_at(1, 3.0) == 3.0

    def test_unknown_node_rejected(self):
        channel = Channel(chain_deployment(depth=2))
        with pytest.raises(SimulationError):
            channel.is_busy(99, 0.0)

    def test_negative_duration_rejected(self):
        channel = Channel(chain_deployment(depth=2))
        with pytest.raises(SimulationError):
            channel.reserve(1, 0.0, -1.0)


class TestSensorNode:
    def test_enqueue_and_head_and_pop(self):
        node = make_node()
        packet = DataPacket(packet_id=1, source=2, created_at=0.0)
        assert node.enqueue(packet)
        assert node.head() is packet
        assert node.backlog == 1
        assert node.pop_head() is packet
        assert node.backlog == 0
        assert node.forwarded == 1

    def test_full_queue_drops_packets(self):
        node = make_node(capacity=2)
        assert node.enqueue(DataPacket(1, 2, 0.0))
        assert node.enqueue(DataPacket(2, 2, 0.0))
        assert not node.enqueue(DataPacket(3, 2, 0.0))
        assert node.dropped == 1

    def test_pop_empty_queue_rejected(self):
        with pytest.raises(SimulationError):
            make_node().pop_head()

    def test_sink_does_not_queue(self):
        sink = SensorNode(node_id=0, ring=0, parent=None, energy=EnergyAccount(radio=cc2420()))
        assert sink.is_sink
        with pytest.raises(SimulationError):
            sink.enqueue(DataPacket(1, 2, 0.0))


class TestPacketLog:
    def test_delivery_ratio_and_delays(self):
        log = PacketLog()
        for _ in range(4):
            log.record_generated()
        log.record_delivery(
            DeliveryRecord(packet_id=1, source=5, source_ring=2, created_at=1.0, delivered_at=3.0, hops=2)
        )
        log.record_delivery(
            DeliveryRecord(packet_id=2, source=7, source_ring=3, created_at=2.0, delivered_at=5.0, hops=3)
        )
        assert log.delivery_ratio == pytest.approx(0.5)
        assert log.delays() == [2.0, 3.0]
        assert log.delays(source_ring=3) == [3.0]

    def test_delivery_before_creation_rejected(self):
        with pytest.raises(SimulationError):
            DeliveryRecord(packet_id=1, source=5, source_ring=2, created_at=3.0, delivered_at=1.0, hops=2)

    def test_packet_hop_recording(self):
        packet = DataPacket(packet_id=1, source=9, created_at=0.0)
        packet.record_hop(4)
        packet.record_hop(2)
        assert packet.hops == 2
        assert packet.current_holder == 2
