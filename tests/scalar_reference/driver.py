"""The per-event object driver: one replication as nodes, channel and closures.

:func:`simulate_scalar` wires :class:`~scalar_reference.node.SensorNode`
objects, a :class:`~scalar_reference.channel.Channel`, the protocol's
behaviour (:mod:`scalar_reference.mac`) and the event queue of
:mod:`scalar_reference.engine` into one run, and reduces it to the
production :class:`~repro.simulation.SimulationResult`.  It shares only the
configuration, the result type, the deployment and the generation budget
check with the production engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import SimulationError
from repro.network.deployment import ring_deployment
from repro.protocols.base import DutyCycledMACModel, ParameterVector
from repro.simulation.runner import (
    SimulationConfig,
    SimulationResult,
    check_generation_budget,
)
from scalar_reference.channel import Channel
from scalar_reference.energy import EnergyAccount
from scalar_reference.engine import Simulator
from scalar_reference.mac.factory import behaviour_for_model
from scalar_reference.node import SensorNode
from scalar_reference.packets import DataPacket, DeliveryRecord, PacketLog


class _SimulationRun:
    """Internal driver object wiring nodes, channel, behaviour and engine."""

    def __init__(
        self,
        model: DutyCycledMACModel,
        params: ParameterVector,
        config: SimulationConfig,
    ) -> None:
        self._model = model
        self._config = config
        self._rng = np.random.default_rng(config.seed)
        self._deployment = config.deployment or ring_deployment(
            depth=model.scenario.depth,
            density=model.scenario.density,
            seed=config.seed,
        )
        self._behaviour = behaviour_for_model(model, params, self._rng)
        self._simulator = Simulator(max_events=config.max_events)
        self._channel = Channel(self._deployment)
        self._log = PacketLog()
        self._packet_counter = 0
        self._nodes: Dict[int, SensorNode] = {}
        for node_id in self._deployment.node_ids:
            ring = self._deployment.ring_of[node_id]
            parent = self._deployment.parent_of(node_id)
            node = SensorNode(
                node_id=node_id,
                ring=ring,
                parent=parent,
                energy=EnergyAccount(radio=model.scenario.radio),
                queue_capacity=config.queue_capacity,
            )
            node.phase = self._behaviour.assign_phase(node)
            self._nodes[node_id] = node

    # ------------------------------------------------------------------ #
    # Traffic generation
    # ------------------------------------------------------------------ #

    def _schedule_traffic(self) -> None:
        period = self._model.scenario.sampling_period
        sources = sum(not node.is_sink for node in self._nodes.values())
        check_generation_budget(sources, period, self._config)
        cutoff = self._config.horizon * self._config.generation_cutoff
        for node in self._nodes.values():
            if node.is_sink:
                continue
            offset = float(self._rng.uniform(0.0, period))
            time = offset
            while time < cutoff:
                self._simulator.schedule_at(
                    time,
                    self._make_generation_action(node),
                    label=f"generate@{node.node_id}",
                )
                time += period

    def _make_generation_action(self, node: SensorNode):
        def action() -> None:
            self._packet_counter += 1
            packet = DataPacket(
                packet_id=self._packet_counter,
                source=node.node_id,
                created_at=self._simulator.now,
            )
            self._log.record_generated()
            if node.enqueue(packet):
                self._try_forward(node)

        return action

    # ------------------------------------------------------------------ #
    # Forwarding
    # ------------------------------------------------------------------ #

    def _try_forward(self, node: SensorNode) -> None:
        if node.is_sink or node.busy or not node.queue:
            return
        if node.parent is None:
            raise SimulationError(f"node {node.node_id} has no route to the sink")
        receiver = self._nodes[node.parent]
        overhearers = [
            self._nodes[neighbour]
            for neighbour in self._deployment.neighbours_of(node.node_id)
            if neighbour not in (node.parent, 0)
        ]
        node.busy = True
        outcome = self._behaviour.plan_hop(
            node, receiver, self._simulator.now, self._channel, overhearers
        )
        self._simulator.schedule_at(
            outcome.completion,
            self._make_completion_action(node, receiver),
            label=f"complete@{node.node_id}",
        )

    def _make_completion_action(self, sender: SensorNode, receiver: SensorNode):
        def action() -> None:
            packet = sender.pop_head()
            packet.record_hop(receiver.node_id)
            sender.busy = False
            if receiver.is_sink:
                self._log.record_delivery(
                    DeliveryRecord(
                        packet_id=packet.packet_id,
                        source=packet.source,
                        source_ring=self._deployment.ring_of[packet.source],
                        created_at=packet.created_at,
                        delivered_at=self._simulator.now,
                        hops=packet.hops,
                    )
                )
            else:
                if receiver.enqueue(packet):
                    self._try_forward(receiver)
            self._try_forward(sender)

        return action

    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #

    def run(self) -> SimulationResult:
        self._schedule_traffic()
        self._simulator.run_until(self._config.horizon)

        horizon = self._config.horizon
        for node in self._nodes.values():
            if node.is_sink:
                continue
            self._behaviour.charge_periodic_energy(node, horizon)

        node_power: Dict[int, float] = {}
        ring_members: Dict[int, List[float]] = {}
        dropped = 0
        for node in self._nodes.values():
            if node.is_sink:
                continue
            power = node.energy.average_power(horizon)
            node_power[node.node_id] = power
            ring_members.setdefault(node.ring, []).append(power)
            dropped += node.dropped
        ring_power = {ring: float(np.mean(values)) for ring, values in ring_members.items()}

        delays_by_ring: Dict[int, List[float]] = {}
        for record in self._log.delivered:
            delays_by_ring.setdefault(record.source_ring, []).append(record.delay)

        return SimulationResult(
            protocol=self._behaviour.name,
            parameters=self._behaviour.params,
            horizon=horizon,
            node_power=node_power,
            ring_power=ring_power,
            delays_by_ring=delays_by_ring,
            generated_packets=self._log.generated,
            delivered_packets=len(self._log.delivered),
            dropped_packets=dropped,
            channel_transmissions=self._channel.transmissions,
            channel_deferrals=self._channel.deferrals,
            processed_events=self._simulator.processed_events,
        )


def simulate_scalar(
    model: DutyCycledMACModel,
    params: ParameterVector,
    config: Optional[SimulationConfig] = None,
) -> SimulationResult:
    """Run one replication on the per-event object driver.

    The reference the production engine is checked against (differential
    matrix, golden traces, ``benchmarks/bench_simulator.py``); same
    arguments, errors and result as
    :func:`repro.simulation.simulate_protocol`.
    """
    return _SimulationRun(model, params, config or SimulationConfig()).run()
