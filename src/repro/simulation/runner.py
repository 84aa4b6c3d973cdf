"""Simulation driver.

``simulate_protocol`` runs one protocol configuration on a concrete
deployment and returns a :class:`SimulationResult` with the same quantities
the analytical model predicts (per-node average power, end-to-end delays per
source ring), so the two can be compared directly by
:mod:`repro.analysis.validation`.

It runs on the array-batched engine (:mod:`repro.simulation.batched`).
The per-event object driver defined here, :func:`simulate_scalar`, is the
reference that engine is proven bit-identical to, and the fallback for a
behaviour without a registered batch kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.network.deployment import ring_deployment
from repro.network.topology import UnitDiskDeployment
from repro.protocols.base import DutyCycledMACModel, ParameterVector
from repro.scenario import Scenario
from repro.simulation.channel import Channel
from repro.simulation.energy import EnergyAccount
from repro.simulation.engine import Simulator
from repro.simulation.mac.factory import behaviour_for_model
from repro.simulation.node import SensorNode
from repro.simulation.packets import DataPacket, DeliveryRecord, PacketLog


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one simulation run.

    Attributes:
        horizon: Simulated duration in seconds.
        seed: Random seed (phases, traffic offsets, backoffs).
        deployment: Optional concrete deployment; when omitted, one is
            generated to match the model's scenario (same depth and density).
        generation_cutoff: Fraction of the horizon after which no new packets
            are generated, so late packets do not bias the delay statistics
            by never getting a chance to be delivered.
        queue_capacity: Per-node forwarding-queue capacity.
        max_events: Safety budget for the event loop.
    """

    horizon: float = 2000.0
    seed: int = 1
    deployment: Optional[UnitDiskDeployment] = None
    generation_cutoff: float = 0.9
    queue_capacity: int = 64
    max_events: int = 2_000_000

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise SimulationError(f"horizon must be positive, got {self.horizon!r}")
        if not (0.0 < self.generation_cutoff <= 1.0):
            raise SimulationError("generation_cutoff must lie in (0, 1]")
        if self.queue_capacity < 1:
            raise SimulationError("queue_capacity must be >= 1")


#: Generations per source up to which :func:`generation_lower_bound`'s
#: rounding margin is proven; a larger count is bounded by this one.
_GENERATIONS_PER_SOURCE_CAP = 10**9


def generation_lower_bound(sources: int, period: float, cutoff: float) -> int:
    """A lower bound on the packet generations a run schedules.

    Each source generates its first packet at an offset in ``[0, period]``
    and then one every ``period``, the times summed in floats, while the
    time stays below ``cutoff``.  A float addition rounds up by a relative
    2**-53 at most, so 10**9 of them stay within a relative 1e-6 of the
    exact sum: every source schedules at least
    ``cutoff / (period · (1 + 1e-6)) − 1`` generations.
    """
    per_source = min(cutoff / (period * (1.0 + 1e-6)), _GENERATIONS_PER_SOURCE_CAP)
    return sources * max(int(per_source) - 1, 0)


def check_generation_budget(sources: int, period: float, config: SimulationConfig) -> None:
    """Refuse a run whose packet generations alone exceed its event budget.

    Both drivers call this before they build a generation event: the event
    loop processes every generation, so such a run would raise this error
    anyway, but only after holding all of its generations in memory.

    Raises:
        SimulationError: the event-budget error, when
            :func:`generation_lower_bound` exceeds ``config.max_events``.
    """
    cutoff = config.horizon * config.generation_cutoff
    count = generation_lower_bound(sources, period, cutoff)
    if count > config.max_events:
        raise SimulationError(
            f"event budget exceeded ({config.max_events}): {sources} sources "
            f"generate at least {count} packets before t={cutoff:g} s"
        )


def check_horizon(scenario: Scenario, horizon: float, field_name: str, label: str) -> None:
    """Refuse a horizon that a run on ``scenario``'s ring deployment cannot finish.

    :func:`~repro.network.deployment.ring_deployment` places
    ``density · depth²`` sources, each generating one packet per sampling
    period, so this is :func:`check_generation_budget` at plan time, with
    the default :class:`SimulationConfig` budget and cutoff the planned
    runs use.

    Raises:
        ConfigurationError: naming ``field_name`` and the scenario ``label``.
    """
    try:
        check_generation_budget(
            scenario.density * scenario.depth**2,
            scenario.sampling_period,
            SimulationConfig(horizon=horizon),
        )
    except SimulationError as error:
        raise ConfigurationError(
            f"{field_name} {horizon!r} is too long for scenario {label!r}: {error}"
        ) from None


@dataclass
class SimulationResult:
    """Measured quantities of one simulation run.

    Attributes:
        protocol: Protocol name.
        parameters: Simulated parameter vector.
        horizon: Simulated duration in seconds.
        node_power: Average radio power (J/s) per node id.
        ring_power: Mean of the node powers per ring.
        delays_by_ring: Delivered end-to-end delays per source ring.
        generated_packets: Number of packets generated.
        delivered_packets: Number of packets delivered to the sink.
        dropped_packets: Packets dropped at full queues.
        channel_transmissions: Number of medium reservations.
        channel_deferrals: Number of carrier-sense deferrals.
        processed_events: Number of discrete events the engine processed
            (used by ``benchmarks/bench_simulator.py`` for events/second).
        engine: Provenance: which driver actually produced this result
            (``"batched"``, or ``"scalar"`` for the reference driver and
            kernel-less fallbacks).  Excluded from :meth:`as_dict` on
            purpose — the two drivers are bit-identical, so reports and
            artifacts must not differ by driver.
    """

    protocol: str
    parameters: Mapping[str, float]
    horizon: float
    node_power: Dict[int, float] = field(default_factory=dict)
    ring_power: Dict[int, float] = field(default_factory=dict)
    delays_by_ring: Dict[int, List[float]] = field(default_factory=dict)
    generated_packets: int = 0
    delivered_packets: int = 0
    dropped_packets: int = 0
    channel_transmissions: int = 0
    channel_deferrals: int = 0
    processed_events: int = 0
    engine: str = "scalar"

    # ------------------------------------------------------------------ #
    # Aggregates mirrored on the analytical model
    # ------------------------------------------------------------------ #

    @property
    def system_energy(self) -> float:
        """Maximum per-node average power (J/s) — the simulated ``E``."""
        if not self.node_power:
            raise SimulationError("the simulation produced no energy accounts")
        return max(self.node_power.values())

    @property
    def bottleneck_ring_energy(self) -> float:
        """Mean power of ring-1 nodes (J/s)."""
        if 1 not in self.ring_power:
            raise SimulationError("no ring-1 node in the simulated deployment")
        return self.ring_power[1]

    @property
    def delivery_ratio(self) -> float:
        """Fraction of generated packets delivered to the sink."""
        if self.generated_packets == 0:
            return 0.0
        return self.delivered_packets / self.generated_packets

    def mean_delay(self, ring: Optional[int] = None) -> float:
        """Mean end-to-end delay (seconds) for one source ring (or overall)."""
        delays: List[float] = []
        for source_ring, values in self.delays_by_ring.items():
            if ring is None or source_ring == ring:
                delays.extend(values)
        if not delays:
            raise SimulationError(
                f"no delivered packet from ring {ring!r} to compute a delay from"
            )
        return float(np.mean(delays))

    def max_ring_delay(self) -> float:
        """Mean delay of the farthest ring that delivered packets — the simulated ``L``."""
        rings_with_data = [ring for ring, values in self.delays_by_ring.items() if values]
        if not rings_with_data:
            raise SimulationError("no packet was delivered during the simulation")
        return self.mean_delay(max(rings_with_data))

    def as_dict(self) -> Dict[str, object]:
        """Flat summary used by reports."""
        return {
            "protocol": self.protocol,
            "parameters": dict(self.parameters),
            "horizon_s": self.horizon,
            "system_energy_j_per_s": self.system_energy,
            "max_ring_delay_s": self.max_ring_delay(),
            "delivery_ratio": self.delivery_ratio,
            "generated": self.generated_packets,
            "delivered": self.delivered_packets,
            "dropped": self.dropped_packets,
            "transmissions": self.channel_transmissions,
            "deferrals": self.channel_deferrals,
            "events": self.processed_events,
        }


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

    The reference implementation the batched engine is checked against
    (differential matrix, golden traces, ``bench_simulator.py``); same
    arguments, errors and result as :func:`simulate_protocol`.
    """
    return _SimulationRun(model, params, config or SimulationConfig()).run()


def simulate_protocol(
    model: DutyCycledMACModel,
    params: ParameterVector,
    config: Optional[SimulationConfig] = None,
) -> SimulationResult:
    """Simulate one protocol configuration and return the measured metrics.

    Runs on the array-batched engine, or on :func:`simulate_scalar` when the
    behaviour has no registered batch kernel; the result is the same.

    Args:
        model: Analytical protocol model (defines scenario and timing).
        params: Parameter vector to simulate (mapping or array).
        config: Simulation configuration; defaults to a 2000-second run on a
            freshly generated deployment matching the model's scenario.

    Returns:
        A :class:`SimulationResult` with the measured per-node powers,
        per-ring delays and delivery/channel counters — the same quantities
        the analytical model predicts, for direct comparison by
        :mod:`repro.analysis.validation`.

    Raises:
        SimulationError: if the model's protocol has no registered simulated
            behaviour (an analytical-only user-registered protocol) or the
            configuration is inconsistent.
    """
    # Imported lazily: the batched engine builds on this module.
    from repro.simulation.batched import simulate_protocol_batched

    return simulate_protocol_batched(model, params, [config or SimulationConfig()])[0]
