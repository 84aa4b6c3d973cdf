"""Simulation entry point, configuration and result.

``simulate_protocol`` runs one protocol configuration on a concrete
deployment and returns a :class:`SimulationResult` with the same quantities
the analytical model predicts (per-node average power, end-to-end delays per
source ring), so the two can be compared directly by
:mod:`repro.analysis.validation`.  It runs on the array-batched engine
(:mod:`repro.simulation.batched`), the one simulator of the package.  A
:class:`ReplicationMeasurement` is the part of a result that the spot check
and the validation campaigns compare, and that a result store keeps.

This module also holds the checks that refuse a run before anything is
built: :class:`SimulationConfig` validates its own fields,
:func:`check_generation_budget` refuses a run whose packet generations alone
exceed its event budget, and :func:`check_horizon` applies both that and
the deployment size limit at plan time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError, StoreError
from repro.network.deployment import check_node_count
from repro.network.topology import UnitDiskDeployment
from repro.protocols.base import DutyCycledMACModel, ParameterVector
from repro.scenario import Scenario


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one simulation run.

    Attributes:
        horizon: Simulated duration in seconds (finite and positive).
        seed: Random seed (phases, traffic offsets, backoffs); an integer
            >= 0.
        deployment: Optional concrete deployment; when omitted, one is
            generated to match the model's scenario (same depth and density).
        generation_cutoff: Fraction of the horizon after which no new packets
            are generated, so late packets do not bias the delay statistics
            by never getting a chance to be delivered.
        queue_capacity: Per-node forwarding-queue capacity (an integer >= 1).
        max_events: Safety budget for the event loop (an integer >= 1).

    Raises:
        SimulationError: naming the first field outside its range.
    """

    horizon: float = 2000.0
    seed: int = 1
    deployment: Optional[UnitDiskDeployment] = None
    generation_cutoff: float = 0.9
    queue_capacity: int = 64
    max_events: int = 2_000_000

    def __post_init__(self) -> None:
        if not math.isfinite(self.horizon):
            raise SimulationError(f"horizon must be finite, got {self.horizon!r}")
        if self.horizon <= 0:
            raise SimulationError(f"horizon must be positive, got {self.horizon!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral) or self.seed < 0:
            raise SimulationError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not (0.0 < self.generation_cutoff <= 1.0):
            raise SimulationError("generation_cutoff must lie in (0, 1]")
        for name in ("queue_capacity", "max_events"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise SimulationError(f"{name} must be an integer >= 1, got {value!r}")


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

    The engine calls this before it builds a generation event: the event
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
    """Refuse a scenario or horizon that a run on its ring deployment cannot finish.

    :func:`~repro.network.deployment.ring_deployment` places
    ``density · depth²`` sources, and refuses more than
    :data:`~repro.network.deployment.MAX_DEPLOYMENT_NODES` of them; each
    source generates one packet per sampling period, so the rest is
    :func:`check_generation_budget` at plan time, with the default
    :class:`SimulationConfig` budget and cutoff the planned runs use.

    Raises:
        ConfigurationError: naming the scenario ``label`` and its node count,
            or ``field_name`` and the scenario ``label``.
    """
    sources = scenario.density * scenario.depth**2
    try:
        check_node_count(sources)
    except ConfigurationError as error:
        raise ConfigurationError(
            f"scenario {label!r} is too large to simulate: {error}"
        ) from None
    try:
        check_generation_budget(
            sources, scenario.sampling_period, SimulationConfig(horizon=horizon)
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
        node_power: Average radio power (J/s) per node, keyed by its
            deployment row.
        ring_power: Mean of the node powers per ring.
        delays_by_ring: Delivered end-to-end delays per source ring.
        generated_packets: Number of packets generated.
        delivered_packets: Number of packets delivered to the sink.
        dropped_packets: Packets dropped at full queues.
        channel_transmissions: Number of medium reservations.
        channel_deferrals: Number of carrier-sense deferrals.
        processed_events: Number of discrete events the engine processed
            (used by ``benchmarks/bench_simulator.py`` for events/second).
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


@dataclass(frozen=True)
class ReplicationMeasurement:
    """Metrics of one seeded simulation replication.

    Attributes:
        seed: The replication's simulation seed.
        energy: Measured mean ring-1 per-node power (J/s).
        delay: Measured mean end-to-end delay of the farthest delivering
            ring (s), or ``None`` when the replication delivered no packet.
        delivery_ratio: Fraction of generated packets delivered.
        generated: Packets generated.
        delivered: Packets delivered to the sink.
        dropped: Packets dropped at full queues.
    """

    seed: int
    energy: float
    delay: Optional[float]
    delivery_ratio: float
    generated: int
    delivered: int
    dropped: int

    @classmethod
    def from_result(cls, result: SimulationResult, seed: int) -> "ReplicationMeasurement":
        """The metrics of one run of :func:`simulate_protocol` at ``seed``.

        A run that delivered no packet yields ``delay=None`` instead of
        raising: zero delivery is a campaign finding, not a crash.
        """
        delivered_any = any(values for values in result.delays_by_ring.values())
        return cls(
            seed=seed,
            energy=result.bottleneck_ring_energy,
            delay=result.max_ring_delay() if delivered_any else None,
            delivery_ratio=result.delivery_ratio,
            generated=result.generated_packets,
            delivered=result.delivered_packets,
            dropped=result.dropped_packets,
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready payload for the persistent result store.

        Every field round-trips exactly through JSON (floats keep their
        shortest round-tripping ``repr``), so a measurement read back from
        the store is indistinguishable from a freshly simulated one — the
        property resume/shard-merge byte-identity rests on.
        """
        return {
            "seed": self.seed,
            "energy": self.energy,
            "delay": self.delay,
            "delivery_ratio": self.delivery_ratio,
            "generated": self.generated,
            "delivered": self.delivered,
            "dropped": self.dropped,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ReplicationMeasurement":
        """Rebuild a measurement from its stored payload.

        Raises:
            StoreError: if the payload is missing fields or has the wrong
                shape (e.g. a record of another kind filed under this key).
        """
        try:
            delay = payload["delay"]
            return cls(
                seed=int(payload["seed"]),  # type: ignore[arg-type]
                energy=float(payload["energy"]),  # type: ignore[arg-type]
                delay=None if delay is None else float(delay),  # type: ignore[arg-type]
                delivery_ratio=float(payload["delivery_ratio"]),  # type: ignore[arg-type]
                generated=int(payload["generated"]),  # type: ignore[arg-type]
                delivered=int(payload["delivered"]),  # type: ignore[arg-type]
                dropped=int(payload["dropped"]),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as error:
            raise StoreError(f"malformed replication payload: {error!r}") from error


def simulate_protocol(
    model: DutyCycledMACModel,
    params: ParameterVector,
    config: Optional[SimulationConfig] = None,
) -> SimulationResult:
    """Simulate one protocol configuration and return the measured metrics.

    Runs on the array-batched engine
    (:func:`~repro.simulation.batched.simulate_protocol_batched`).

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
        SimulationError: if the model's protocol has no simulator (an
            analytical-only user-registered protocol) or the configuration
            is inconsistent.
    """
    # Imported lazily: the batched engine builds on this module.
    from repro.simulation.batched import simulate_protocol_batched

    return simulate_protocol_batched(model, params, [config or SimulationConfig()])[0]
