"""Sensor node model for the simulator.

A node generates application packets periodically (with a random phase so
the network's traffic is not synchronized), keeps a bounded FIFO queue of
packets waiting to be forwarded, and hands the head-of-line packet to the MAC
behaviour whenever it is not already busy with a transmission.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.exceptions import SimulationError
from scalar_reference.energy import EnergyAccount
from scalar_reference.packets import DataPacket


@dataclass
class SensorNode:
    """State of one sensor node during a simulation run.

    Attributes:
        node_id: Identifier of the node in the deployment.
        ring: Hop distance to the sink.
        parent: Tree parent toward the sink (``None`` for the sink itself).
        energy: The node's radio energy account.
        queue_capacity: Maximum number of packets the forwarding queue holds;
            packets arriving at a full queue are dropped (and show up as a
            reduced delivery ratio).
        phase: Random phase offset (seconds) applied to this node's periodic
            MAC activities (wake-ups, slots).
    """

    node_id: int
    ring: int
    parent: Optional[int]
    energy: EnergyAccount
    queue_capacity: int = 64
    phase: float = 0.0
    queue: Deque[DataPacket] = field(default_factory=deque)
    busy: bool = False
    dropped: int = 0
    forwarded: int = 0

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise SimulationError("queue_capacity must be >= 1")
        if self.phase < 0:
            raise SimulationError("phase must be non-negative")

    @property
    def is_sink(self) -> bool:
        """Whether this node is the data sink."""
        return self.parent is None and self.ring == 0

    # ------------------------------------------------------------------ #
    # Queue handling
    # ------------------------------------------------------------------ #

    def enqueue(self, packet: DataPacket) -> bool:
        """Add a packet to the forwarding queue.

        Args:
            packet: The packet to queue for forwarding.

        Returns:
            True if the packet was accepted, False if it was dropped because
            the queue is full (the drop is counted on the node).

        Raises:
            SimulationError: if called on the sink, which never forwards.
        """
        if self.is_sink:
            raise SimulationError("the sink does not queue packets for forwarding")
        if len(self.queue) >= self.queue_capacity:
            self.dropped += 1
            return False
        packet.current_holder = self.node_id
        self.queue.append(packet)
        return True

    def head(self) -> Optional[DataPacket]:
        """The packet at the head of the queue, or ``None``."""
        return self.queue[0] if self.queue else None

    def pop_head(self) -> DataPacket:
        """Remove and return the head-of-line packet.

        Returns:
            The packet that was at the head of the queue (counted as
            forwarded).

        Raises:
            SimulationError: if the queue is empty.
        """
        if not self.queue:
            raise SimulationError(f"node {self.node_id} has an empty queue")
        self.forwarded += 1
        return self.queue.popleft()

    @property
    def backlog(self) -> int:
        """Number of packets currently waiting in the queue."""
        return len(self.queue)
