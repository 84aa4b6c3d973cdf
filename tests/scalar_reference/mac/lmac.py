"""Simulated LMAC behaviour.

Time is divided into frames of ``N`` slots of equal length; every node owns
one slot (chosen uniformly at random here — the distributed slot-assignment
protocol itself is out of scope and replaced by a collision-free random
assignment per node).  Nodes listen to the control section of every slot
(periodic cost) and transmit their own control message once per frame; data
units ride in the owner's slot, addressed to the tree parent.

Only the slot-ownership logic lives here; scheduling, the periodic-cost
closed form and the data exchange accounting come from the
:class:`~scalar_reference.mac.base.DutyCycleKernel`.  LMAC keeps the
kernel's no-op overhearing transition: neighbourhood listening is already
part of the per-frame control-section cost.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

import numpy as np

from repro.protocols.base import DutyCycledMACModel
from repro.protocols.lmac import LMACModel
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


class LMACSimBehaviour(DutyCycleKernel):
    """Operational simulation of LMAC for one parameter setting."""

    name = "LMAC"

    def __init__(
        self,
        model: DutyCycledMACModel,
        params: Mapping[str, float] | Sequence[float] | np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(model, params, rng)
        if not isinstance(model, LMACModel):
            raise TypeError("LMACSimBehaviour requires an LMACModel")
        self._slot_length = self._params[LMACModel.SLOT_LENGTH]
        self._slot_count = int(round(self._params[LMACModel.SLOT_COUNT]))
        self._frame = self._slot_length * self._slot_count
        self._control = self._packets.control_airtime(self._radio)
        self._guard = model._guard_time  # noqa: SLF001 - same package family
        self._wakeup = self._radio.wakeup_time

    # ------------------------------------------------------------------ #
    # Periodic behaviour
    # ------------------------------------------------------------------ #

    def assign_phase(self, node: SensorNode) -> float:
        """Each node owns a uniformly random slot index within the frame."""
        slot_index = int(self._rng.integers(0, self._slot_count))
        return slot_index * self._slot_length

    def periodic_charges(self) -> Tuple[PeriodicCharge, ...]:
        """Listen to every other slot's control section; send own control."""
        return (
            PeriodicCharge(
                state=KernelState.RX_CONTROL,
                interval=self._frame,
                duration=self._control + self._guard + self._wakeup,
                multiplier=self._slot_count - 1,
                activity="control-listen",
            ),
            PeriodicCharge(
                state=KernelState.TX_CONTROL,
                interval=self._frame,
                duration=self._control + self._wakeup,
                activity="control-tx",
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
        """Wait for the sender's own slot (retry a frame later if occupied)."""
        slot_start = next_occurrence(now, self._frame, sender.phase)
        # Slot ownership is collision-free by construction; the medium check
        # only guards against the (rare) case of overlapping random slots.
        start = channel.free_at(sender.node_id, slot_start)
        if start > slot_start:
            start = next_occurrence(start, self._frame, sender.phase)
        return MediumGrant(
            start=start, transmission_start=start + self._guard + self._control
        )

    def perform_exchange(
        self,
        grant: MediumGrant,
        sender: SensorNode,
        receiver: SensorNode,
        channel: Channel,
    ) -> HopOutcome:
        """Announce in the control section, then send the data unit."""
        data_start = grant.transmission_start
        completion = data_start + self._data
        airtime = self._guard + self._control + self._data
        channel.reserve(sender.node_id, grant.start, airtime)

        # The sender's control transmission is part of the periodic cost;
        # only the data unit is charged per packet.  LMAC data units are
        # not acknowledged — the next frame's control section confirms.
        self.charge_sender_data_ack(sender, data_start, ack=False)
        # The receiver was listening to the control section anyway (periodic);
        # staying awake for the addressed data unit is the extra cost.
        self.charge_receiver_data_ack(receiver, data_start, ack=False)
        return HopOutcome(
            transmission_start=grant.start,
            completion=completion,
            airtime=airtime,
        )
