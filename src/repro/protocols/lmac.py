"""LMAC analytical model.

LMAC (van Hoesel & Havinga, 2004) is a frame-based (TDMA) protocol: time is
divided into frames of ``N`` slots and every node owns exactly one slot per
frame, chosen so that no two nodes within two hops share a slot.  A slot
starts with a short *control* section — transmitted by the slot owner and
received by all of its neighbours — that advertises the addressee of the data
unit that follows; nodes that are not addressed switch their radio off for
the data section.  Because slot ownership removes contention entirely, the
protocol's costs are dominated by the fixed per-slot overheads: every node
wakes up for the control section (plus a clock-drift guard) of *every* slot
of the frame, and transmits its own control message once per frame even when
it has no data.

Tunable parameters:

* ``slot_length`` — the duration of one slot.  Longer slots dilute the fixed
  control/guard overhead (cheaper) but stretch the frame (slower).
* ``slot_count`` — the number of slots per frame ``N``.  It must be at least
  the two-hop neighbourhood size (``2C + 1``) for a collision-free slot
  assignment to exist; more slots lengthen the frame without saving energy,
  so the optimizer drives this to its lower bound, which is itself a useful
  sanity check of the optimization substrate.

Per-hop latency is dominated by waiting for the forwarding node's own slot,
``Tf / 2`` on average with ``Tf = N * slot_length``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict

from repro.core.parameters import Parameter, ParameterSpace
from repro.exceptions import ConfigurationError
from repro.network.traffic import RingTraffic
from repro.protocols.base import ClosedFormMACModel, ParameterVector, Value, Values
from repro.scenario import Scenario


class LMACModel(ClosedFormMACModel):
    """Analytical energy/latency model of LMAC.

    Args:
        scenario: Shared evaluation environment.
        guard_time: Per-slot clock-drift guard during which the receiver must
            already be listening (seconds).
        max_frame: Largest admissible frame length in seconds, bounded by how
            much clock drift the guard time can absorb between control
            messages.
        max_slot_count_factor: Upper bound on the slot count expressed as a
            multiple of the minimum (two-hop neighbourhood) slot count.
    """

    name = "LMAC"
    family = "frame-based-tdma"

    #: Parameter-space keys.
    SLOT_LENGTH = "slot_length"
    SLOT_COUNT = "slot_count"

    def __init__(
        self,
        scenario: Scenario,
        guard_time: float = 0.002,
        max_frame: float = 10.0,
        max_slot_count_factor: float = 2.0,
    ) -> None:
        super().__init__(scenario)
        if guard_time < 0:
            raise ConfigurationError(f"guard_time must be >= 0, got {guard_time!r}")
        if max_frame <= 0:
            raise ConfigurationError(f"max_frame must be positive, got {max_frame!r}")
        if max_slot_count_factor < 1.0:
            raise ConfigurationError(
                f"max_slot_count_factor must be >= 1, got {max_slot_count_factor!r}"
            )
        self._guard_time = float(guard_time)
        self._max_frame = float(max_frame)
        self._max_slot_count_factor = float(max_slot_count_factor)

    # ------------------------------------------------------------------ #
    # Slot structure
    # ------------------------------------------------------------------ #

    @cached_property
    def _times(self) -> Dict[str, float]:
        radio = self.scenario.radio
        packets = self.scenario.packets
        return {
            "control": packets.control_airtime(radio),
            "data": packets.data_airtime(radio),
            "wakeup": radio.wakeup_time,
            "listen_per_slot": packets.control_airtime(radio) + self._guard_time + radio.wakeup_time,
        }

    @property
    def min_slot_count(self) -> int:
        """Smallest collision-free slot count: the two-hop neighbourhood size."""
        return 2 * self.scenario.density + 1

    @property
    def max_slot_count(self) -> int:
        """Largest admissible slot count."""
        return int(round(self.min_slot_count * self._max_slot_count_factor))

    @property
    def min_slot_length(self) -> float:
        """Smallest slot that fits guard + control section + one data unit."""
        times = self._times
        return times["control"] + times["data"] + self._guard_time + times["wakeup"]

    @property
    def max_slot_length(self) -> float:
        """Largest admissible slot, from the frame-length (drift) bound."""
        return self._max_frame / self.min_slot_count

    @cached_property
    def parameter_space(self) -> ParameterSpace:
        """Two tunables: slot length and slot count."""
        if self.max_slot_length <= self.min_slot_length:
            raise ConfigurationError(
                "LMAC parameter space is empty: the drift-bounded maximum slot "
                f"({self.max_slot_length:.4f}s) does not exceed the minimum slot "
                f"({self.min_slot_length:.4f}s); increase max_frame or shrink frames"
            )
        return ParameterSpace(
            [
                Parameter(
                    name=self.SLOT_LENGTH,
                    lower=self.min_slot_length,
                    upper=self.max_slot_length,
                    unit="s",
                    description="LMAC slot duration (control + guard + data section)",
                ),
                Parameter(
                    name=self.SLOT_COUNT,
                    lower=float(self.min_slot_count),
                    upper=float(self.max_slot_count),
                    unit="slots",
                    description="LMAC slots per frame (>= two-hop neighbourhood size)",
                    integer=True,
                ),
            ]
        )

    def frame_length(self, params: ParameterVector) -> float:
        """Frame length ``Tf = N * slot_length`` in seconds."""
        return self._frame(self._point(params))

    @staticmethod
    def _frame(x: Values) -> Value:
        slot, count = x
        return slot * count

    # ------------------------------------------------------------------ #
    # Energy
    # ------------------------------------------------------------------ #

    def energy_terms(self, x: Values, traffic: RingTraffic) -> Values:
        """Per-node energy terms (J/s) of a ring-``d`` node running LMAC.

        Components:

        * carrier sensing — waking up and listening to guard + control
          section of every slot of the frame,
        * transmit — the data units for outgoing packets,
        * receive — the data units of incoming packets (the control section
          announcing them is already counted under carrier sensing),
        * overhear — zero: slot ownership means non-addressed neighbours
          switch off after the control section, which is already accounted,
        * sync transmit — the node's own control message, sent every frame
          regardless of traffic (this is LMAC's signature fixed cost).
        """
        count = x[1]
        frame = self._frame(x)
        radio = self.scenario.radio
        times = self._times
        # The node listens to every slot's guard + control except its own.
        carrier_sense = (count - 1.0) * times["listen_per_slot"] * radio.power_rx / frame
        transmit = traffic.output * times["data"] * radio.power_tx
        receive = traffic.input * times["data"] * radio.power_rx
        sync_transmit = (times["control"] + times["wakeup"]) * radio.power_tx / frame
        return carrier_sense, transmit, receive, 0.0, sync_transmit, 0.0

    # ------------------------------------------------------------------ #
    # Latency, duty cycle, capacity
    # ------------------------------------------------------------------ #

    def hop_time(self, x: Values) -> Value:
        """Expected per-hop latency: wait for the forwarder's own slot.

        Slot assignments are not ordered along the routing path, so the
        expected wait at each hop is half a frame, plus the data section of
        the transmitting slot.
        """
        return 0.5 * self._frame(x) + self._times["data"]

    def awake_fraction(self, x: Values, traffic: RingTraffic) -> Value:
        """Fraction of time the radio is awake: every other slot's guard and
        control section, the node's own control message, and its data."""
        count = x[1]
        frame = self._frame(x)
        times = self._times
        return (
            (count - 1.0) * times["listen_per_slot"] / frame
            + (times["control"] + times["wakeup"]) / frame
            + traffic.output * times["data"]
            + traffic.input * times["data"]
        )

    def bottleneck_load(self, x: Values, traffic: RingTraffic) -> Value:
        """Bottleneck load: data units per owned slot per frame.

        The peak (bursty) output rate is what must fit into the owned slot.
        """
        return traffic.peak_output * self._frame(x)
