"""Simulated DMAC behaviour.

All nodes share a global frame of length ``Tf``.  A node at ring ``d`` has
its receive slot at offset ``(D - d - 1) * mu`` and its transmit slot at
offset ``(D - d) * mu`` within the frame (``mu`` is the slot time), so a
packet picked up by the departure wave moves one hop per slot all the way to
the sink.  The per-frame receive/transmit slot listening is the periodic
cost; per-packet costs are the contention, data and acknowledgement
exchanges.

Only the staggered-schedule logic lives here; the contention window, the
data/ack accounting and the periodic-cost closed form come from the
:class:`~scalar_reference.mac.base.DutyCycleKernel`.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

import numpy as np

from repro.protocols.base import DutyCycledMACModel
from repro.protocols.dmac import DMACModel
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


class DMACSimBehaviour(DutyCycleKernel):
    """Operational simulation of DMAC for one parameter setting."""

    name = "DMAC"

    def __init__(
        self,
        model: DutyCycledMACModel,
        params: Mapping[str, float] | Sequence[float] | np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(model, params, rng)
        if not isinstance(model, DMACModel):
            raise TypeError("DMACSimBehaviour requires a DMACModel")
        self._frame = self._params[DMACModel.FRAME_LENGTH]
        self._slot = model.slot_time
        self._contention = model._contention_window  # noqa: SLF001 - same package family
        self._depth = self._scenario.depth

    # ------------------------------------------------------------------ #
    # Periodic behaviour
    # ------------------------------------------------------------------ #

    def _tx_offset(self, ring: int) -> float:
        """Offset of the ring's transmit slot within the frame."""
        return (self._depth - ring) * self._slot

    def assign_phase(self, node: SensorNode) -> float:
        """The staggered schedule is deterministic per ring (no random phase)."""
        if node.is_sink:
            return 0.0
        return self._tx_offset(node.ring)

    def periodic_charges(self) -> Tuple[PeriodicCharge, ...]:
        """Receive slot + transmit slot idle listening every frame."""
        return (
            PeriodicCharge(
                state=KernelState.RX_CONTROL,
                interval=self._frame,
                duration=self._slot,
                multiplier=2,
                activity="slot-listen",
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
        """Wait for the sender's transmit slot and contend briefly.

        Same-ring neighbours contend within the shared transmit slot: defer
        behind an ongoing transmission if the exchange still fits in the
        slot, otherwise retry in the next frame's transmit slot (the
        kernel's slot-overflow RETRY transition).
        """
        slot_start = next_occurrence(now, self._frame, sender.phase)
        contention = self.contention_delay(self._contention)
        airtime = self._exchange
        start = channel.free_at(sender.node_id, slot_start)
        if start + contention + airtime > slot_start + self._slot:
            slot_start = next_occurrence(slot_start + self._slot, self._frame, sender.phase)
            start = max(slot_start, channel.free_at(sender.node_id, slot_start))
        return MediumGrant(
            start=start,
            transmission_start=start + contention,
            info={"contention": contention},
        )

    def perform_exchange(
        self,
        grant: MediumGrant,
        sender: SensorNode,
        receiver: SensorNode,
        channel: Channel,
    ) -> HopOutcome:
        """Contention listen, then the data/ack exchange."""
        transmission_start = grant.transmission_start
        airtime = self._exchange
        completion = transmission_start + airtime
        channel.reserve(sender.node_id, transmission_start, airtime)

        self.charge(
            sender,
            KernelState.CONTEND,
            grant.start,
            grant.info["contention"],
            activity="contention",
        )
        self.charge_sender_data_ack(sender, transmission_start)
        # The receiver is awake in its receive slot anyway (periodic cost);
        # only the acknowledgement transmission is extra.
        self.charge_receiver_ack(receiver, completion)
        return HopOutcome(
            transmission_start=transmission_start,
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
        """Same-ring neighbours awake in the overlapping slot overhear the data."""
        for neighbour in overhearers:
            if neighbour.ring == sender.ring:
                self.charge(
                    neighbour,
                    KernelState.OVERHEAR,
                    outcome.transmission_start,
                    self._data,
                    activity="overhear",
                )
