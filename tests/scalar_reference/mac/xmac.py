"""Simulated X-MAC behaviour.

Receivers poll the channel every wake-up interval ``Tw`` (each node has its
own random phase); a sender strobes from the moment it acquires the medium
until the receiver's next poll, then exchanges data and acknowledgement.
Neighbours of the sender that poll during the strobe train overhear one
strobe period each.

Only the strobed-preamble logic lives here; scheduling, contention,
data/ack accounting and periodic costs come from the
:class:`~scalar_reference.mac.base.DutyCycleKernel`.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

import numpy as np

from repro.protocols.base import DutyCycledMACModel
from repro.protocols.xmac import XMACModel
from scalar_reference.channel import Channel
from scalar_reference.mac.base import (
    DutyCycleKernel,
    HopOutcome,
    KernelState,
    MediumGrant,
    PeriodicCharge,
    next_occurrence,
)
from scalar_reference.node import SensorNode


class XMACSimBehaviour(DutyCycleKernel):
    """Operational simulation of X-MAC for one parameter setting."""

    name = "X-MAC"

    def __init__(
        self,
        model: DutyCycledMACModel,
        params: Mapping[str, float] | Sequence[float] | np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(model, params, rng)
        self._wakeup = self._params[XMACModel.WAKEUP_INTERVAL]
        radio = self._radio
        packets = self._packets
        self._strobe = packets.strobe_airtime(radio)
        self._gap = self._ack + 2.0 * radio.turnaround_time
        self._strobe_period = self._strobe + self._gap

    # ------------------------------------------------------------------ #
    # Periodic behaviour
    # ------------------------------------------------------------------ #

    def assign_phase(self, node: SensorNode) -> float:
        """Each node polls on its own schedule with a uniform random phase."""
        return float(self._rng.uniform(0.0, self._wakeup))

    def periodic_charges(self) -> Tuple[PeriodicCharge, ...]:
        """Channel polls: one short carrier sense every wake-up interval."""
        return (
            PeriodicCharge(
                state=KernelState.POLL,
                interval=self._wakeup,
                duration=self._poll_cost,
                activity="poll",
            ),
        )

    # ------------------------------------------------------------------ #
    # Hop transitions
    # ------------------------------------------------------------------ #

    def acquire_grant(
        self,
        sender: SensorNode,
        receiver: SensorNode,
        now: float,
        channel: Channel,
    ) -> MediumGrant:
        """Acquire the medium, then strobe until the receiver's next poll."""
        start = self.acquire_medium(
            sender, now, channel, deferral_backoff=self._strobe_period
        )
        # The receiver polls at phase + k * Tw; the strobe train must cover
        # the first poll after the strobing starts.
        receiver_poll = next_occurrence(start, self._wakeup, receiver.phase)
        strobe_duration = max(0.0, receiver_poll - start) + self._strobe_period
        return MediumGrant(
            start=start,
            transmission_start=start,
            info={"receiver_poll": receiver_poll, "strobe_duration": strobe_duration},
        )

    def perform_exchange(
        self,
        grant: MediumGrant,
        sender: SensorNode,
        receiver: SensorNode,
        channel: Channel,
    ) -> HopOutcome:
        """Strobe train, early ack, then the data/ack exchange."""
        start = grant.start
        receiver_poll = grant.info["receiver_poll"]
        strobe_duration = grant.info["strobe_duration"]
        transmission_end = start + strobe_duration + self._exchange
        airtime = strobe_duration + self._exchange
        channel.reserve(sender.node_id, start, airtime)

        # Sender: alternating strobes and ack-listen gaps, then data + ack.
        strobe_tx_fraction = self._strobe / self._strobe_period
        self.charge(
            sender,
            KernelState.TX_PREAMBLE,
            start,
            strobe_duration * strobe_tx_fraction,
            activity="strobe-tx",
        )
        self.charge(
            sender,
            KernelState.RX_ACK,
            start,
            strobe_duration * (1.0 - strobe_tx_fraction),
            activity="strobe-ack-listen",
        )
        self.charge_sender_data_ack(sender, start)

        # Receiver: wakes at its poll, hears the residual strobe, answers the
        # early ack, receives the data frame and acknowledges it.
        self.charge(
            receiver,
            KernelState.RX_PREAMBLE,
            receiver_poll,
            0.5 * self._strobe_period + self._strobe,
            activity="strobe-rx",
        )
        self.charge(
            receiver, KernelState.TX_ACK, receiver_poll, self._ack, activity="early-ack-tx"
        )
        self.charge_receiver_data_ack(receiver, receiver_poll)
        return HopOutcome(
            transmission_start=start,
            completion=transmission_end,
            airtime=airtime,
        )

    def charge_overhearers(
        self,
        grant: MediumGrant,
        outcome: HopOutcome,
        sender: SensorNode,
        overhearers: Sequence[SensorNode],
    ) -> None:
        """Neighbours whose poll falls inside the strobe train wake up, hear
        one addressed strobe, and go back to sleep."""
        start = grant.start
        strobe_duration = grant.info["strobe_duration"]
        for neighbour in overhearers:
            poll_time = next_occurrence(start, self._wakeup, neighbour.phase)
            if poll_time <= start + strobe_duration:
                self.charge(
                    neighbour,
                    KernelState.OVERHEAR,
                    poll_time,
                    1.5 * self._strobe_period,
                    activity="overhear",
                )
