"""X-MAC analytical model.

X-MAC (Buettner et al., SenSys 2006) is an asynchronous preamble-sampling
protocol: receivers sleep almost all the time and briefly poll the channel
every *wake-up interval* ``Tw``; a sender transmits a train of short,
addressed preamble strobes until the intended receiver wakes up, answers with
an early acknowledgement, and receives the data frame.  Non-addressed
neighbours that happen to wake during the strobe train overhear a single
strobe and go back to sleep.

The single tunable parameter is the wake-up interval ``Tw``:

* small ``Tw``  → frequent polling (expensive when idle) but short preambles
  and low per-hop latency;
* large ``Tw``  → cheap idle listening but each transmission must strobe for
  ``Tw / 2`` on average, and per-hop latency grows with ``Tw / 2``.

The resulting per-node energy is the classic U-shaped curve
``a / Tw + b·Tw + c`` whose minimiser moves with the traffic load, which is
exactly the structure the paper's Figure 1a exploits.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict

from repro.core.parameters import Parameter, ParameterSpace
from repro.exceptions import ConfigurationError
from repro.network.traffic import RingTraffic
from repro.protocols.base import ClosedFormMACModel, Value, Values
from repro.scenario import Scenario


class XMACModel(ClosedFormMACModel):
    """Analytical energy/latency model of X-MAC.

    Args:
        scenario: Shared evaluation environment.
        min_wakeup_interval: Smallest admissible ``Tw`` in seconds.  Bounded
            below by the time needed to poll the channel and exchange one
            strobe/ack pair.
        max_wakeup_interval: Largest admissible ``Tw`` in seconds.  Bounded
            above by the application sampling period (polling less often than
            packets arrive starves the queue).
    """

    name = "X-MAC"
    family = "preamble-sampling"

    #: Parameter-space key of the wake-up interval.
    WAKEUP_INTERVAL = "wakeup_interval"

    def __init__(
        self,
        scenario: Scenario,
        min_wakeup_interval: float = 0.01,
        max_wakeup_interval: float = 5.0,
    ) -> None:
        super().__init__(scenario)
        self._min_wakeup = float(min_wakeup_interval)
        self._max_wakeup = min(float(max_wakeup_interval), scenario.sampling_period)
        if self._min_wakeup <= 0 or self._min_wakeup >= self._max_wakeup:
            raise ConfigurationError(
                "X-MAC wake-up interval bounds are inconsistent: "
                f"[{self._min_wakeup}, {self._max_wakeup}]"
            )

    # ------------------------------------------------------------------ #
    # Parameter space
    # ------------------------------------------------------------------ #

    @cached_property
    def parameter_space(self) -> ParameterSpace:
        """Single tunable: the wake-up (channel check) interval ``Tw``."""
        return ParameterSpace(
            [
                Parameter(
                    name=self.WAKEUP_INTERVAL,
                    lower=self._min_wakeup,
                    upper=self._max_wakeup,
                    unit="s",
                    description="X-MAC wake-up / channel-check interval Tw",
                )
            ]
        )

    # ------------------------------------------------------------------ #
    # Timing building blocks
    # ------------------------------------------------------------------ #

    @cached_property
    def _times(self) -> Dict[str, float]:
        """Pre-computed frame durations and derived powers."""
        radio = self.scenario.radio
        packets = self.scenario.packets
        strobe = packets.strobe_airtime(radio)
        ack = packets.ack_airtime(radio)
        data = packets.data_airtime(radio)
        gap = ack + 2.0 * radio.turnaround_time
        strobe_period = strobe + gap
        # Average power while strobing: alternate strobe transmissions with
        # listening gaps waiting for the receiver's early acknowledgement.
        strobe_power = (strobe * radio.power_tx + gap * radio.power_rx) / strobe_period
        return {
            "strobe": strobe,
            "ack": ack,
            "data": data,
            "gap": gap,
            "strobe_period": strobe_period,
            "strobe_power": strobe_power,
            "poll": radio.wakeup_time + radio.carrier_sense_time,
            "exchange": data + radio.turnaround_time + ack,
        }

    # ------------------------------------------------------------------ #
    # Energy
    # ------------------------------------------------------------------ #

    def energy_terms(self, x: Values, traffic: RingTraffic) -> Values:
        """Per-node energy terms (J/s) of a ring-``d`` node running X-MAC.

        Components:

        * carrier sensing — one channel poll per wake-up interval,
        * transmit — strobing for ``Tw/2`` on average, then data + ack wait,
          for every outgoing packet,
        * receive — residual strobe + early ack + data, for every incoming
          packet,
        * overhear — one strobe period per background transmission (X-MAC's
          addressed strobes let non-targets abort early),
        * no synchronization: the protocol is asynchronous.
        """
        (wakeup,) = x
        times = self._times
        radio = self.scenario.radio
        carrier_sense = times["poll"] * radio.power_rx / wakeup
        transmit = traffic.output * (
            0.5 * wakeup * times["strobe_power"]
            + times["data"] * radio.power_tx
            + times["ack"] * radio.power_rx
        )
        receive = traffic.input * (
            (0.5 * times["strobe_period"] + times["strobe"]) * radio.power_rx
            + times["ack"] * radio.power_tx
            + times["data"] * radio.power_rx
        )
        overhear = traffic.background * 1.5 * times["strobe_period"] * radio.power_rx
        return carrier_sense, transmit, receive, overhear, 0.0, 0.0

    # ------------------------------------------------------------------ #
    # Latency, duty cycle, capacity
    # ------------------------------------------------------------------ #

    def hop_time(self, x: Values) -> Value:
        """Expected per-hop latency: half a wake-up interval of strobing plus
        the strobe/ack handshake and the data exchange (ring-independent
        under low load)."""
        (wakeup,) = x
        times = self._times
        return 0.5 * wakeup + times["strobe_period"] + times["exchange"]

    def awake_fraction(self, x: Values, traffic: RingTraffic) -> Value:
        """Fraction of time the radio is awake: polls, strobe trains,
        exchanges and overheard strobes."""
        (wakeup,) = x
        times = self._times
        return (
            times["poll"] / wakeup
            + traffic.output * (0.5 * wakeup + times["exchange"])
            + traffic.input * (0.5 * times["strobe_period"] + times["strobe"] + times["exchange"])
            + traffic.background * 1.5 * times["strobe_period"]
        )

    def bottleneck_load(self, x: Values, traffic: RingTraffic) -> Value:
        """Bottleneck (ring-1) channel utilization.

        Each outgoing packet occupies the channel for the strobe train plus
        the data exchange; each incoming packet for the residual strobe plus
        the exchange.  The busy fraction must stay below
        :attr:`max_utilization`.  Capacity is provisioned for the *peak*
        rates, so bursty traffic tightens this constraint.
        """
        (wakeup,) = x
        times = self._times
        return traffic.peak_output * (0.5 * wakeup + times["strobe_period"] + times["exchange"]) + (
            traffic.peak_input * (0.5 * times["strobe_period"] + times["strobe"] + times["exchange"])
        )
