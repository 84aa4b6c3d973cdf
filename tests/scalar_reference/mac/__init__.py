"""Per-protocol forwarding behaviours for the simulator.

Each behaviour translates the protocol's operation into three things the
runner needs: the periodic (traffic-independent) energy cost of a node, the
time at which a queued packet can actually be handed to the next hop, and the
energy charged to the sender, the receiver and the overhearing neighbours for
that hop.

All four built-in behaviours are subclasses of the shared
:class:`~scalar_reference.mac.base.DutyCycleKernel` — the duty-cycle MAC
state machine (kernel states, periodic-cost table, contention windows,
data/ack exchange accounting); each subclass implements only its
distinguishing transitions.
"""

from scalar_reference.mac.base import (
    DutyCycleKernel,
    HopOutcome,
    KernelState,
    MACSimBehaviour,
    MediumGrant,
    PeriodicCharge,
    next_occurrence,
)
from scalar_reference.mac.xmac import XMACSimBehaviour
from scalar_reference.mac.dmac import DMACSimBehaviour
from scalar_reference.mac.lmac import LMACSimBehaviour
from scalar_reference.mac.scpmac import SCPMACSimBehaviour
from scalar_reference.mac.factory import (
    available_mac_protocols,
    behaviour_for_model,
)

__all__ = [
    "DutyCycleKernel",
    "HopOutcome",
    "KernelState",
    "MACSimBehaviour",
    "MediumGrant",
    "PeriodicCharge",
    "next_occurrence",
    "XMACSimBehaviour",
    "DMACSimBehaviour",
    "LMACSimBehaviour",
    "SCPMACSimBehaviour",
    "available_mac_protocols",
    "behaviour_for_model",
]
