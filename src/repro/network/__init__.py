"""Network substrate: radio hardware, packets, topology, deployment and traffic.

This subpackage provides everything the MAC analytical models and the
discrete-event simulator need to describe the *environment* the protocol runs
in:

* :mod:`repro.network.radio` — radio hardware model (power per operating
  mode, bit-rate, turnaround times) with CC2420/CC1100-class presets.
* :mod:`repro.network.packets` — frame-size model translating payload bytes
  and protocol overheads into on-air durations.
* :mod:`repro.network.topology` — the ring ("concentric circles around the
  sink") abstraction used by the paper, plus a concrete unit-disk-graph
  deployment and its BFS gathering tree, kept as plain dicts (an adjacency
  dict and a ``{child: parent}`` dict) so no graph library is needed.
* :mod:`repro.network.traffic` — the periodic-traffic load equations
  (per-ring output, input, background traffic and input link counts).
* :mod:`repro.network.deployment` — the ring deployment the simulator runs
  on, with every node on its analytical ring.
"""

from repro.network.radio import RadioMode, RadioModel, cc2420, cc1100, tr1001
from repro.network.packets import PacketModel
from repro.network.topology import RingTopology, UnitDiskDeployment, build_gathering_tree
from repro.network.traffic import TrafficModel, RingTraffic
from repro.network.deployment import ring_deployment

__all__ = [
    "RadioMode",
    "RadioModel",
    "cc2420",
    "cc1100",
    "tr1001",
    "PacketModel",
    "RingTopology",
    "UnitDiskDeployment",
    "build_gathering_tree",
    "TrafficModel",
    "RingTraffic",
    "ring_deployment",
]
