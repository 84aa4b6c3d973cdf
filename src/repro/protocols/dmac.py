"""DMAC analytical model.

DMAC (Lu, Krishnamachari, Raghavendra, 2007) is a slotted, contention-based
protocol designed for data-gathering trees.  Nodes wake up according to a
*staggered* schedule: a node at depth ``d`` has its receive slot exactly when
its children (depth ``d + 1``) have their transmit slot, so a packet injected
into the tree ripples toward the sink in consecutive slots without waiting a
full frame at every hop.  Between its receive and transmit slots a node
sleeps for the remainder of the frame.

The tunable parameter is the frame length ``Tf`` (the period of the staggered
schedule):

* small ``Tf``  → the schedule comes around often: low latency, but the node
  pays the receive-slot and transmit-slot idle listening every frame;
* large ``Tf``  → the fixed per-frame cost is amortized over a long sleep,
  but a freshly generated packet waits ``Tf / 2`` on average for the next
  departure wave.

Unlike X-MAC there is no per-packet penalty that grows with ``Tf``, so the
energy is monotonically decreasing in ``Tf`` and the energy player always
pushes ``Tf`` against the delay constraint or the synchronization bound —
which is why the paper's Figure 1b saturates for large ``Lmax``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict

from repro.core.parameters import Parameter, ParameterSpace
from repro.exceptions import ConfigurationError
from repro.network.traffic import RingTraffic
from repro.protocols.base import ClosedFormMACModel, Value, Values, minimum
from repro.scenario import Scenario


class DMACModel(ClosedFormMACModel):
    """Analytical energy/latency model of DMAC.

    Args:
        scenario: Shared evaluation environment.
        contention_window: Average contention time (seconds) spent listening
            before a data transmission within a slot.
        max_frame: Largest admissible frame length ``Tf`` in seconds.  Bounded
            by how long the staggered schedules can stay aligned given clock
            drift between re-synchronizations.
        sync_period: Interval (seconds) between schedule synchronization
            exchanges (SYNC frames); contributes a small fixed cost.
    """

    name = "DMAC"
    family = "slotted-contention"

    #: Parameter-space key of the frame length.
    FRAME_LENGTH = "frame_length"

    def __init__(
        self,
        scenario: Scenario,
        contention_window: float = 0.006,
        max_frame: float = 9.5,
        sync_period: float = 60.0,
    ) -> None:
        super().__init__(scenario)
        if contention_window <= 0:
            raise ConfigurationError(f"contention_window must be positive, got {contention_window!r}")
        if sync_period <= 0:
            raise ConfigurationError(f"sync_period must be positive, got {sync_period!r}")
        self._contention_window = float(contention_window)
        self._sync_period = float(sync_period)
        self._max_frame = min(float(max_frame), scenario.sampling_period)
        if self._max_frame <= self.min_frame:
            raise ConfigurationError(
                f"max_frame ({self._max_frame}) must exceed the minimum frame "
                f"({self.min_frame})"
            )

    # ------------------------------------------------------------------ #
    # Slot structure
    # ------------------------------------------------------------------ #

    @cached_property
    def slot_time(self) -> float:
        """Duration ``mu`` of one DMAC slot: contention + data + ack."""
        radio = self.scenario.radio
        packets = self.scenario.packets
        return (
            self._contention_window
            + packets.data_airtime(radio)
            + radio.turnaround_time
            + packets.ack_airtime(radio)
            + radio.wakeup_time
        )

    @property
    def min_frame(self) -> float:
        """Smallest admissible frame: receive slot + transmit slot + one slot
        of slack for the staggered hand-off toward the parent."""
        return 3.0 * self.slot_time

    @property
    def max_frame(self) -> float:
        """Largest admissible frame (synchronization-drift bound)."""
        return self._max_frame

    @cached_property
    def parameter_space(self) -> ParameterSpace:
        """Single tunable: the frame length ``Tf``."""
        return ParameterSpace(
            [
                Parameter(
                    name=self.FRAME_LENGTH,
                    lower=self.min_frame,
                    upper=self._max_frame,
                    unit="s",
                    description="DMAC staggered-schedule frame length Tf",
                )
            ]
        )

    @cached_property
    def _times(self) -> Dict[str, float]:
        radio = self.scenario.radio
        packets = self.scenario.packets
        return {
            "data": packets.data_airtime(radio),
            "ack": packets.ack_airtime(radio),
            "sync": packets.sync_airtime(radio),
            "exchange": packets.data_airtime(radio) + radio.turnaround_time + packets.ack_airtime(radio),
        }

    # ------------------------------------------------------------------ #
    # Energy
    # ------------------------------------------------------------------ #

    def energy_terms(self, x: Values, traffic: RingTraffic) -> Values:
        """Per-node energy terms (J/s) of a ring-``d`` node running DMAC.

        Components:

        * carrier sensing — the node is awake for its receive slot and its
          transmit slot every frame even when no traffic flows (the idle
          listening the protocol pays for staying on schedule),
        * transmit — contention + data + ack-wait per outgoing packet,
        * receive — the ack transmission per incoming packet (the data
          reception itself happens inside the receive slot already counted as
          idle listening, so only the ack is extra),
        * overhear — background transmissions that fall inside the node's
          two scheduled slots,
        * sync — periodic SYNC exchange with the parent and the children.
        """
        (frame,) = x
        radio = self.scenario.radio
        times = self._times
        carrier_sense = 2.0 * self.slot_time * radio.power_rx / frame
        transmit = traffic.output * (
            0.5 * self._contention_window * radio.power_rx
            + times["data"] * radio.power_tx
            + times["ack"] * radio.power_rx
        )
        receive = traffic.input * times["ack"] * radio.power_tx
        scheduled_fraction = minimum(1.0, 2.0 * self.slot_time / frame)
        overhear = traffic.background * scheduled_fraction * times["data"] * radio.power_rx
        sync_transmit = times["sync"] * radio.power_tx / self._sync_period
        sync_receive = (
            (1.0 + traffic.input_links) * times["sync"] * radio.power_rx / self._sync_period
        )
        return carrier_sense, transmit, receive, overhear, sync_transmit, sync_receive

    # ------------------------------------------------------------------ #
    # Latency, duty cycle, capacity
    # ------------------------------------------------------------------ #

    def hop_time(self, x: Values) -> Value:
        """Forwarding latency of one hop once the packet is inside the wave.

        Under the staggered schedule the parent's transmit slot immediately
        follows its receive slot, so every relay hop costs one slot time.
        The wait for the departure wave is :meth:`initial_wait`.
        """
        del x
        return self.slot_time

    def initial_wait(self, x: Values) -> Value:
        """A fresh packet waits ``Tf / 2`` on average for the departure wave."""
        (frame,) = x
        return 0.5 * frame

    def awake_fraction(self, x: Values, traffic: RingTraffic) -> Value:
        """Fraction of time the radio is awake: the two scheduled slots plus
        contention and exchanges of the node's own traffic."""
        (frame,) = x
        return (
            2.0 * self.slot_time / frame
            + traffic.output * (0.5 * self._contention_window + self._times["exchange"])
            + traffic.input * self._times["ack"]
        )

    def bottleneck_load(self, x: Values, traffic: RingTraffic) -> Value:
        """Bottleneck load in packets per frame.

        The transmit slot of ring 1 is shared by the ``C`` ring-1 nodes,
        which all sit in one collision domain around the sink, and the slot
        drains roughly one packet per frame per collision domain.  The
        aggregate offered load ``C * F_out(1) * Tf`` (i.e. the whole
        network's traffic) must therefore stay below
        :attr:`max_utilization` packets per frame.  The peak (bursty) rate
        is what must fit.
        """
        (frame,) = x
        return self.scenario.density * traffic.peak_output * frame
