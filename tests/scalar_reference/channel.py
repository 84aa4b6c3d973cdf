"""Shared-medium bookkeeping.

The simulator models contention through carrier-sense deferral: before
transmitting, a node asks the channel when its neighbourhood becomes free and
defers its transmission until then (plus a small random backoff supplied by
the caller).  A transmission reserves the medium around the *sender* for its
duration, which is the standard unit-disk interference approximation at the
fidelity level of this simulator (no capture, no hidden-terminal losses —
packets are delayed, not destroyed; delivery failures in duty-cycled WSN MAC
studies are dominated by queue overflows, which the node model does capture).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.exceptions import SimulationError
from repro.network.topology import UnitDiskDeployment


class Channel:
    """Tracks when the medium around each node is busy.

    Args:
        deployment: The concrete deployment whose unit-disk graph defines
            which nodes interfere with each other.
    """

    def __init__(self, deployment: UnitDiskDeployment) -> None:
        self._deployment = deployment
        self._busy_until: Dict[int, float] = {node: 0.0 for node in range(len(deployment.ring))}
        self._transmissions = 0
        self._deferrals = 0

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def free_at(self, node: int, now: float) -> float:
        """Earliest time at or after ``now`` when ``node`` sees an idle medium.

        A busy answer is counted as a carrier-sense deferral (the caller is
        expected to defer its transmission to the returned time).

        Args:
            node: The sensing node's id.
            now: Current simulation time.

        Returns:
            ``now`` when the medium is idle, otherwise the end of the
            current reservation.

        Raises:
            SimulationError: if ``node`` is not part of the deployment.
        """
        busy_until = self._busy_until.get(node)
        if busy_until is None:
            raise SimulationError(f"unknown node {node!r}")
        if busy_until > now:
            self._deferrals += 1
            return busy_until
        return now

    def is_busy(self, node: int, now: float) -> bool:
        """Whether the medium around ``node`` is busy at ``now``.

        Args:
            node: The sensing node's id.
            now: Current simulation time.

        Raises:
            SimulationError: if ``node`` is not part of the deployment.
        """
        busy_until = self._busy_until.get(node)
        if busy_until is None:
            raise SimulationError(f"unknown node {node!r}")
        return busy_until > now

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def reserve(self, sender: int, start: float, duration: float) -> None:
        """Mark the medium busy around ``sender`` for ``[start, start + duration]``.

        The reservation covers the sender and every unit-disk neighbour of
        the sender (the nodes that would sense its carrier).

        Args:
            sender: The transmitting node's id.
            start: Reservation start time.
            duration: Reservation length in seconds (non-negative).

        Raises:
            SimulationError: if ``duration`` is negative.
        """
        if duration < 0:
            raise SimulationError(f"negative reservation duration {duration!r}")
        end = start + duration
        self._transmissions += 1
        for node in self._interference_set(sender):
            if end > self._busy_until[node]:
                self._busy_until[node] = end

    def _interference_set(self, sender: int) -> List[int]:
        nodes = [sender]
        nodes.extend(self._deployment.neighbours_of(sender))
        return nodes

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    @property
    def transmissions(self) -> int:
        """Number of medium reservations made so far."""
        return self._transmissions

    @property
    def deferrals(self) -> int:
        """Number of times a sender found its medium busy and had to wait."""
        return self._deferrals
