"""Simulated SCP-MAC behaviour.

SCP-MAC (Ye, Silva, Heidemann, SenSys 2006) synchronizes the channel-polling
times of the whole neighbourhood: every node polls at the *same* periodic
epochs (one network-wide random phase), so a sender only has to transmit a
short wakeup tone spanning twice the residual clock error instead of
strobing for half a wake-up interval like X-MAC.  Access is two-phase: a
first contention window before the tone, and a second one between the tone
and the data frame; a sender that finds the medium already taken at an epoch
has lost that epoch's contention and retries at the next synchronized poll
(the kernel's RETRY transition).  The price of the short tone is a periodic
SYNC exchange that keeps the clocks aligned.

Only the synchronized-polling logic lives here; contention draws, data/ack
accounting and the periodic-cost closed form come from the
:class:`~scalar_reference.mac.base.DutyCycleKernel`.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

import numpy as np

from repro.protocols.base import DutyCycledMACModel
from repro.protocols.scpmac import SCPMACModel
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

#: Contention-window length in units of one clear-channel assessment.  Both
#: contention phases use the same small window; it only has to spread the
#: handful of same-epoch contenders of one neighbourhood.
CONTENTION_SLOTS = 2.0


class SCPMACSimBehaviour(DutyCycleKernel):
    """Operational simulation of SCP-MAC for one parameter setting."""

    name = "SCP-MAC"

    def __init__(
        self,
        model: DutyCycledMACModel,
        params: Mapping[str, float] | Sequence[float] | np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(model, params, rng)
        if not isinstance(model, SCPMACModel):
            raise TypeError("SCPMACSimBehaviour requires an SCPMACModel")
        self._poll = self._params[SCPMACModel.POLL_INTERVAL]
        #: The wakeup tone spans twice the residual synchronization error,
        #: exactly like the analytical model's ``tone`` term.
        self._tone = 2.0 * model.sync_error
        self._sync_period = model.sync_period
        self._sync = self._packets.sync_airtime(self._radio)
        self._cw = CONTENTION_SLOTS * self._radio.carrier_sense_time
        #: One network-wide phase: *synchronized* channel polling means every
        #: node polls at the same epochs.
        self._phase = float(self._rng.uniform(0.0, self._poll))

    # ------------------------------------------------------------------ #
    # Periodic behaviour
    # ------------------------------------------------------------------ #

    def assign_phase(self, node: SensorNode) -> float:
        """All nodes share the network-wide synchronized polling phase."""
        return self._phase

    def periodic_charges(self) -> Tuple[PeriodicCharge, ...]:
        """Synchronized channel polls plus the periodic SYNC exchange.

        A node transmits one SYNC frame per synchronization period and
        receives its ``density`` neighbours' SYNC frames — the analytical
        model's ``sync_transmit``/``sync_receive`` terms.
        """
        return (
            PeriodicCharge(
                state=KernelState.POLL,
                interval=self._poll,
                duration=self._poll_cost,
                activity="poll",
            ),
            PeriodicCharge(
                state=KernelState.TX_CONTROL,
                interval=self._sync_period,
                duration=self._sync,
                activity="sync-tx",
            ),
            PeriodicCharge(
                state=KernelState.RX_CONTROL,
                interval=self._sync_period,
                duration=self._sync,
                multiplier=self._scenario.density,
                activity="sync-rx",
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
        """Wait for the next synchronized poll and run the two contentions.

        A sender whose neighbourhood is already reserved at the epoch (a
        same-epoch contender won the tone) has lost the contention and
        retries at the first epoch after the medium clears.
        """
        epoch = next_occurrence(now, self._poll, self._phase)
        free = channel.free_at(sender.node_id, epoch)
        while free > epoch:
            # Lost this epoch's contention: retry at the next synchronized
            # poll after the medium clears (the RETRY transition).  The tone
            # must start exactly on an epoch — receivers sleep between
            # polls — so walk epochs until one has an idle medium; each step
            # jumps past a finite reservation, so the walk terminates.
            epoch = next_occurrence(free, self._poll, self._phase)
            free = channel.free_at(sender.node_id, epoch)
        # First contention phase: a slotted carrier sense in the window
        # before the epoch (decided by the channel check above); second
        # phase: a random backoff between the tone and the data frame.
        data_backoff = self.backoff(self._cw)
        return MediumGrant(
            start=epoch,
            transmission_start=epoch + self._tone + data_backoff,
            info={"data_backoff": data_backoff},
        )

    def perform_exchange(
        self,
        grant: MediumGrant,
        sender: SensorNode,
        receiver: SensorNode,
        channel: Channel,
    ) -> HopOutcome:
        """Wakeup tone at the epoch, second contention, then data + ack."""
        tone_start = grant.start
        data_start = grant.transmission_start
        completion = data_start + self._exchange
        airtime = completion - tone_start
        channel.reserve(sender.node_id, tone_start, airtime)

        # Sender: carrier sense through both contention windows, the tone,
        # then the data/ack exchange.
        self.charge(
            sender,
            KernelState.CONTEND,
            tone_start,
            self._cw + grant.info["data_backoff"],
            activity="contention",
        )
        self.charge(
            sender, KernelState.TX_PREAMBLE, tone_start, self._tone, activity="tone-tx"
        )
        self.charge_sender_data_ack(sender, data_start)

        # Receiver: its synchronized poll falls inside the tone (that is the
        # point of SCP); it hears half the tone on average, waits out the
        # second contention window and receives the data frame.
        self.charge(
            receiver,
            KernelState.RX_PREAMBLE,
            tone_start,
            0.5 * self._tone + grant.info["data_backoff"],
            activity="tone-rx",
        )
        self.charge_receiver_data_ack(receiver, data_start)
        return HopOutcome(
            transmission_start=data_start,
            completion=completion,
            airtime=airtime,
        )

    def charge_overhearers(
        self,
        grant: MediumGrant,
        outcome: HopOutcome,
        sender: SensorNode,
        overhearers: Sequence[SensorNode],
    ) -> None:
        """Every neighbour polls at the same epoch and samples the tone.

        Synchronized polling means the whole neighbourhood is awake when a
        tone is transmitted; a node that is not the destination hears half
        the tone on average before going back to sleep — the analytical
        model's per-packet ``overhear`` term.
        """
        for neighbour in overhearers:
            self.charge(
                neighbour,
                KernelState.OVERHEAR,
                grant.start,
                0.5 * self._tone,
                activity="overhear",
            )
