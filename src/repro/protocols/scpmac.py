"""SCP-MAC analytical model (extension beyond the paper).

SCP-MAC (Ye, Silva, Heidemann, SenSys 2006) synchronizes the channel-polling
times of neighbouring nodes, so a sender only has to transmit a short wake-up
tone spanning the (small) synchronization error instead of strobing for half
a wake-up interval like X-MAC.  The price is a periodic synchronization
exchange.

The protocol is not part of the paper's evaluation; it is included because
the paper cites it ([10]) as the canonical example of single-objective MAC
optimization, and because it provides a fourth point of comparison for the
framework (a second preamble-sampling protocol with a very different
energy/latency balance).  It demonstrates that the game framework is not
tied to the three protocols of the paper.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict

from repro.core.parameters import Parameter, ParameterSpace
from repro.exceptions import ConfigurationError
from repro.network.traffic import RingTraffic
from repro.protocols.base import ClosedFormMACModel, Value, Values
from repro.scenario import Scenario


class SCPMACModel(ClosedFormMACModel):
    """Analytical energy/latency model of SCP-MAC.

    Args:
        scenario: Shared evaluation environment.
        sync_error: Residual clock synchronization error (seconds); the
            wake-up tone must span twice this value.
        sync_period: Interval (seconds) between synchronization exchanges.
        min_poll_interval: Smallest admissible polling interval ``Tp``.
        max_poll_interval: Largest admissible polling interval ``Tp``.
    """

    name = "SCP-MAC"
    family = "preamble-sampling"

    #: Parameter-space key of the polling interval.
    POLL_INTERVAL = "poll_interval"

    def __init__(
        self,
        scenario: Scenario,
        sync_error: float = 0.002,
        sync_period: float = 60.0,
        min_poll_interval: float = 0.01,
        max_poll_interval: float = 10.0,
    ) -> None:
        super().__init__(scenario)
        if sync_error <= 0 or sync_period <= 0:
            raise ConfigurationError("sync_error and sync_period must be positive")
        self._sync_error = float(sync_error)
        self._sync_period = float(sync_period)
        self._min_poll = float(min_poll_interval)
        self._max_poll = min(float(max_poll_interval), scenario.sampling_period)
        if self._min_poll <= 0 or self._min_poll >= self._max_poll:
            raise ConfigurationError(
                f"SCP-MAC poll interval bounds are inconsistent: [{self._min_poll}, {self._max_poll}]"
            )

    # ------------------------------------------------------------------ #
    # Synchronization constants (shared with the simulated behaviour)
    # ------------------------------------------------------------------ #

    @property
    def sync_error(self) -> float:
        """Residual clock synchronization error (seconds).

        The wakeup tone spans twice this value; the simulated behaviour
        reads it so simulator and closed-form model describe the same tone.
        """
        return self._sync_error

    @property
    def sync_period(self) -> float:
        """Interval (seconds) between periodic SYNC exchanges."""
        return self._sync_period

    # ------------------------------------------------------------------ #
    # Parameter space
    # ------------------------------------------------------------------ #

    @cached_property
    def parameter_space(self) -> ParameterSpace:
        """Single tunable: the synchronized channel-polling interval ``Tp``."""
        return ParameterSpace(
            [
                Parameter(
                    name=self.POLL_INTERVAL,
                    lower=self._min_poll,
                    upper=self._max_poll,
                    unit="s",
                    description="SCP-MAC synchronized channel-polling interval Tp",
                )
            ]
        )

    @cached_property
    def _times(self) -> Dict[str, float]:
        radio = self.scenario.radio
        packets = self.scenario.packets
        tone = 2.0 * self._sync_error
        return {
            "tone": tone,
            "data": packets.data_airtime(radio),
            "ack": packets.ack_airtime(radio),
            "sync": packets.sync_airtime(radio),
            "poll": radio.wakeup_time + radio.carrier_sense_time,
            "exchange": packets.data_airtime(radio) + radio.turnaround_time + packets.ack_airtime(radio),
        }

    # ------------------------------------------------------------------ #
    # Energy
    # ------------------------------------------------------------------ #

    def energy_terms(self, x: Values, traffic: RingTraffic) -> Values:
        """Per-node energy terms (J/s) of a ring-``d`` node running SCP-MAC.

        One poll per interval, a short wake-up tone ahead of each data
        exchange instead of a strobe train, half a tone per received or
        overheard transmission, and the periodic SYNC exchange with the
        node's neighbours.
        """
        (poll,) = x
        radio = self.scenario.radio
        times = self._times
        carrier_sense = times["poll"] * radio.power_rx / poll
        transmit = traffic.output * (
            times["tone"] * radio.power_tx
            + times["data"] * radio.power_tx
            + times["ack"] * radio.power_rx
        )
        receive = traffic.input * (
            0.5 * times["tone"] * radio.power_rx
            + times["data"] * radio.power_rx
            + times["ack"] * radio.power_tx
        )
        overhear = traffic.background * 0.5 * times["tone"] * radio.power_rx
        sync_transmit = times["sync"] * radio.power_tx / self._sync_period
        sync_receive = (
            self.scenario.density * times["sync"] * radio.power_rx / self._sync_period
        )
        return carrier_sense, transmit, receive, overhear, sync_transmit, sync_receive

    # ------------------------------------------------------------------ #
    # Latency, duty cycle, capacity
    # ------------------------------------------------------------------ #

    def hop_time(self, x: Values) -> Value:
        """Expected per-hop latency: wait for the next synchronized poll."""
        (poll,) = x
        times = self._times
        return 0.5 * poll + times["tone"] + times["exchange"]

    def awake_fraction(self, x: Values, traffic: RingTraffic) -> Value:
        """Fraction of time the radio is awake: polls, tones, exchanges and
        the SYNC exchange."""
        (poll,) = x
        times = self._times
        return (
            times["poll"] / poll
            + traffic.output * (times["tone"] + times["exchange"])
            + traffic.input * (0.5 * times["tone"] + times["exchange"])
            + traffic.background * 0.5 * times["tone"]
            + (1.0 + self.scenario.density) * times["sync"] / self._sync_period
        )

    def bottleneck_load(self, x: Values, traffic: RingTraffic) -> Value:
        """Bottleneck channel utilization.

        All transmissions in a neighbourhood are squeezed into the instants
        right after the synchronized polls, so contention is fiercer than in
        X-MAC; the per-poll traffic of the bottleneck neighbourhood — at its
        peak (bursty) rate — must fit into the admissible utilization.
        """
        (poll,) = x
        times = self._times
        per_second_airtime = (traffic.peak_output + traffic.peak_input) * (times["tone"] + times["exchange"])
        # The neighbourhood's packets all contend within the polling epochs.
        contention_stretch = 1.0 + traffic.background * poll * times["exchange"]
        return per_second_airtime * contention_stretch
