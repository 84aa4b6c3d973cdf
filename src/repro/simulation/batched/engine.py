"""The replication driver: flat arrays, tuple events, one tight loop.

Every simulation runs here.  A replication keeps the whole discrete-event
state as flat, integer-indexed data:

* node state as parallel lists (``rx``/``tx`` second accumulators, queue
  deques of ``(created_at, source)`` tuples, busy flags, per-node
  ``busy_until`` medium reservations) — :class:`ReplicationState` holds the
  part a kernel's hop planner reads and writes;
* the event queue as a heap of ``(time, seq, sender, receiver)`` tuples,
  where ``receiver == -1`` marks a packet generation and any other value a
  hop completion; sequence numbers break time ties in scheduling order;
* RNG draws vectorized: phases and traffic offsets as one array draw each,
  in-loop contention backoffs from a block-refilled buffer (the same
  values, and the same stream position, as one draw at a time).

The protocol-specific pieces — phase assignment, the periodic cost table
and the hop planner — come from the model's kernel
(:mod:`repro.simulation.batched.kernels`).  The scalar reference simulator
in ``tests/scalar_reference/`` implements the same semantics with Python
objects, and the differential tests hold every replication bit-identical
to it.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Dict, List, Sequence, Tuple, Type

import numpy as np

from repro.exceptions import SimulationError
from repro.network.deployment import ring_deployment
from repro.network.radio import RadioMode
from repro.protocols.base import DutyCycledMACModel, ParameterVector
from repro.simulation.batched.kernels import BatchKernel, batch_kernel_for
from repro.simulation.runner import (
    SimulationConfig,
    SimulationResult,
    check_generation_budget,
)


class ReplicationState:
    """Flat per-replication state the hop planners operate on.

    Attributes:
        rng: The replication's generator, seeded with the config's seed.
        phases: Per-node phase offsets, indexed by node position.
        rings: Per-node ring index (hop distance from the sink).
        busy_until: Per-node end of the latest medium reservation covering
            the node.
        rx: Per-node accumulated RX seconds.
        tx: Per-node accumulated TX seconds.
        interference: Per-node tuple of node indices the medium reservation
            covers (the node itself plus its unit-disk neighbours).
        overhearers: Per-node tuple of neighbour indices charged for
            overhearing (neighbours minus the parent and the sink).
        transmissions: Medium reservations made so far.
        deferrals: Carrier-sense deferrals so far.
    """

    __slots__ = (
        "rng",
        "phases",
        "rings",
        "busy_until",
        "rx",
        "tx",
        "interference",
        "overhearers",
        "transmissions",
        "deferrals",
    )

    def __init__(
        self,
        rng: np.random.Generator,
        phases: List[float],
        rings: List[int],
        interference: List[Tuple[int, ...]],
        overhearers: List[Tuple[int, ...]],
    ) -> None:
        count = len(phases)
        self.rng = rng
        self.phases = phases
        self.rings = rings
        self.busy_until = [0.0] * count
        self.rx = [0.0] * count
        self.tx = [0.0] * count
        self.interference = interference
        self.overhearers = overhearers
        self.transmissions = 0
        self.deferrals = 0


def _run_replication(
    model: DutyCycledMACModel,
    params: ParameterVector,
    config: SimulationConfig,
    kernel_class: Type[BatchKernel],
) -> SimulationResult:
    """Run one replication of ``model`` at ``params`` on ``kernel_class``."""
    rng = np.random.default_rng(config.seed)
    deployment = config.deployment or ring_deployment(
        depth=model.scenario.depth,
        density=model.scenario.density,
        seed=config.seed,
    )
    kernel = kernel_class(model, params)

    # Node i is row i of the deployment's arrays, and row 0 is the sink.
    rings = deployment.ring.tolist()
    parent_ix = deployment.parent.tolist()
    count = len(rings)
    is_sink = [parent < 0 for parent in parent_ix]
    # Draw order: the kernel's phase draws (SCP-MAC's one network phase, or
    # one phase per node, sink included), then one traffic offset per
    # non-sink node — each as a single vectorized draw.
    phases = kernel.assign_phases(rng, count, rings, is_sink)

    indices = deployment.indices.tolist()
    starts = deployment.indptr.tolist()
    interference: List[Tuple[int, ...]] = []
    overhearers: List[Tuple[int, ...]] = []
    for index, parent in enumerate(parent_ix):
        neighbours = indices[starts[index] : starts[index + 1]]
        interference.append((index, *neighbours))
        overhearers.append(
            ()
            if parent < 0
            else tuple(n for n in neighbours if n != parent and n != 0)
        )

    period = model.scenario.sampling_period
    cutoff = config.horizon * config.generation_cutoff
    sources = [index for index in range(count) if not is_sink[index]]
    check_generation_budget(len(sources), period, config)
    offsets = rng.uniform(0.0, period, size=len(sources))
    heap: List[Tuple[float, int, int, int]] = []
    seq = 0
    for position, source in enumerate(sources):
        time = float(offsets[position])
        while time < cutoff:
            heap.append((time, seq, source, -1))
            seq += 1
            time += period
    heapify(heap)

    state = ReplicationState(rng, phases, rings, interference, overhearers)
    plan = kernel.make_hop_planner(state)
    queues: List[deque] = [deque() for _ in range(count)]
    busy = [False] * count
    dropped = [0] * count
    capacity = config.queue_capacity
    horizon = config.horizon
    max_events = config.max_events
    generated = 0
    deliveries: List[Tuple[int, float]] = []

    processed = 0
    while heap and heap[0][0] <= horizon:
        now, _, sender, receiver = heappop(heap)
        processed += 1
        if processed > max_events:
            raise SimulationError(
                f"event budget exceeded ({max_events}); "
                f"the simulation is likely runaway"
            )
        if receiver < 0:
            # Packet generation at `sender`.
            generated += 1
            queue = queues[sender]
            if len(queue) >= capacity:
                dropped[sender] += 1
            elif not busy[sender]:
                queue.append((now, sender))
                busy[sender] = True
                completion = plan(sender, parent_ix[sender], now)
                if completion < now:
                    completion = now
                heappush(heap, (completion, seq, sender, parent_ix[sender]))
                seq += 1
            else:
                queue.append((now, sender))
            continue
        # Hop completion: `sender` hands its head-of-queue packet to
        # `receiver`, which queues it (or delivers it, at the sink).
        created_at, source = queues[sender].popleft()
        busy[sender] = False
        if is_sink[receiver]:
            deliveries.append((rings[source], now - created_at))
        else:
            queue = queues[receiver]
            if len(queue) >= capacity:
                dropped[receiver] += 1
            else:
                queue.append((created_at, source))
                if not busy[receiver]:
                    busy[receiver] = True
                    completion = plan(receiver, parent_ix[receiver], now)
                    if completion < now:
                        completion = now
                    heappush(heap, (completion, seq, receiver, parent_ix[receiver]))
                    seq += 1
        if queues[sender] and not busy[sender]:
            busy[sender] = True
            completion = plan(sender, parent_ix[sender], now)
            if completion < now:
                completion = now
            heappush(heap, (completion, seq, sender, parent_ix[sender]))
            seq += 1

    # Closed-form periodic costs, then each node's average power (active
    # energy plus the residual sleep, over the horizon) in the float
    # association of the reference's EnergyAccount.
    periodic_rows = kernel.periodic_seconds(horizon)
    radio = model.scenario.radio
    power_rx = radio.power(RadioMode.RX)
    power_tx = radio.power(RadioMode.TX)
    power_sleep = radio.power_sleep
    rx = state.rx
    tx = state.tx
    node_power: Dict[int, float] = {}
    ring_members: Dict[int, List[float]] = {}
    dropped_total = 0
    for index in range(count):
        if is_sink[index]:
            continue
        node_rx = rx[index]
        node_tx = tx[index]
        for is_tx, seconds in periodic_rows:
            if is_tx:
                node_tx += seconds
            else:
                node_rx += seconds
        active_energy = power_rx * node_rx + power_tx * node_tx
        recorded_time = node_rx + node_tx
        residual_sleep = horizon - recorded_time
        if residual_sleep < 0.0:
            residual_sleep = 0.0
        power = (active_energy + residual_sleep * power_sleep) / horizon
        node_power[index] = power
        ring_members.setdefault(rings[index], []).append(power)
        dropped_total += dropped[index]
    ring_power = {
        ring: float(np.mean(values)) for ring, values in ring_members.items()
    }

    delays_by_ring: Dict[int, List[float]] = {}
    for source_ring, delay in deliveries:
        delays_by_ring.setdefault(source_ring, []).append(delay)

    return SimulationResult(
        protocol=kernel.name,
        parameters=kernel.params,
        horizon=horizon,
        node_power=node_power,
        ring_power=ring_power,
        delays_by_ring=delays_by_ring,
        generated_packets=generated,
        delivered_packets=len(deliveries),
        dropped_packets=dropped_total,
        channel_transmissions=state.transmissions,
        channel_deferrals=state.deferrals,
        processed_events=processed,
    )


def simulate_protocol_batched(
    model: DutyCycledMACModel,
    params: ParameterVector,
    configs: Sequence[SimulationConfig],
) -> List[SimulationResult]:
    """Simulate R independently seeded replications of one configuration.

    Each result is fully determined by its config (typically the configs
    differ only in ``seed``), and equals ``simulate_protocol(model, params,
    config)``.

    Args:
        model: Analytical protocol model (defines scenario and timing).
        params: Parameter vector to simulate (mapping or array).
        configs: One :class:`SimulationConfig` per replication.

    Returns:
        One :class:`SimulationResult` per config, in input order.

    Raises:
        SimulationError: if ``configs`` is empty, the model has no kernel
            (an analytical-only protocol), or the event budget runs out.
    """
    configs = list(configs)
    if not configs:
        raise SimulationError(
            "simulate_protocol_batched needs at least one replication config"
        )
    kernel_class = batch_kernel_for(model)
    return [
        _run_replication(model, params, config, kernel_class) for config in configs
    ]


__all__ = ["ReplicationState", "simulate_protocol_batched"]
