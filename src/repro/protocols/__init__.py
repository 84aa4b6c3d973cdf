"""Analytical models of duty-cycled MAC protocols.

One module per protocol, each deriving per-node energy consumption (split
into carrier sensing, transmission, reception, overhearing and
synchronization), per-hop latency and channel-capacity constraints from the
shared :class:`~repro.scenario.Scenario`:

* :mod:`repro.protocols.xmac` — X-MAC, asynchronous preamble sampling.
* :mod:`repro.protocols.dmac` — DMAC, slotted contention-based with a
  staggered wake-up schedule along the gathering tree.
* :mod:`repro.protocols.lmac` — LMAC, frame-based (TDMA) with node-owned
  slots.
* :mod:`repro.protocols.scpmac` — SCP-MAC, scheduled channel polling
  (extension beyond the paper; useful for ablations).

:mod:`repro.protocols.registry` exposes a name-based factory used by the CLI
and the experiment drivers.
"""

from repro.protocols.base import ClosedFormMACModel, DutyCycledMACModel, EnergyBreakdown
from repro.protocols.xmac import XMACModel
from repro.protocols.dmac import DMACModel
from repro.protocols.lmac import LMACModel
from repro.protocols.scpmac import SCPMACModel
from repro.protocols.registry import (
    PROTOCOL_FAMILIES,
    available_protocols,
    create_protocol,
    paper_protocols,
)

__all__ = [
    "ClosedFormMACModel",
    "DutyCycledMACModel",
    "EnergyBreakdown",
    "XMACModel",
    "DMACModel",
    "LMACModel",
    "SCPMACModel",
    "PROTOCOL_FAMILIES",
    "available_protocols",
    "create_protocol",
    "paper_protocols",
]
