"""Packet-level discrete-event simulator of duty-cycled MAC protocols.

The paper is purely analytical; this subpackage provides the evaluation
substrate it leans on: an operational, event-driven simulation of X-MAC,
DMAC, LMAC and SCP-MAC on a concrete gathering tree, with per-node
radio-state energy accounting and per-packet end-to-end delay measurement.
All four behaviours share the duty-cycle MAC kernel in
:mod:`repro.simulation.mac.base`.  It is used to validate the analytical
models (see :mod:`repro.analysis.validation` and
``benchmarks/bench_simulation_validation.py``).

Fidelity level: the simulator works at the granularity of *forwarding
operations* (channel polls, strobe trains, slots, data/ack exchanges), not
individual symbols; carrier-sense deferral models contention.  This is the
level the Langendoen & Meier analysis itself is written at, so analytical and
simulated quantities are directly comparable.

* :mod:`repro.simulation.engine` — event queue and simulation clock.
* :mod:`repro.simulation.energy` — radio-state energy accounting per node.
* :mod:`repro.simulation.packets` — data packets and delivery records.
* :mod:`repro.simulation.node` — sensor node: queue, traffic generation.
* :mod:`repro.simulation.channel` — shared-medium busy bookkeeping.
* :mod:`repro.simulation.mac` — per-protocol forwarding behaviours.
* :mod:`repro.simulation.runner` — experiment driver returning a
  :class:`~repro.simulation.runner.SimulationResult`, plus the scalar
  reference driver :func:`~repro.simulation.runner.simulate_scalar`.
* :mod:`repro.simulation.batched` — the array-batched replication engine
  every simulation runs on, bit-identical to the scalar reference.
"""

from repro.simulation.batched import simulate_protocol_batched
from repro.simulation.engine import EventQueue, Simulator
from repro.simulation.energy import EnergyAccount
from repro.simulation.packets import DataPacket, DeliveryRecord
from repro.simulation.runner import (
    SimulationConfig,
    SimulationResult,
    simulate_protocol,
    simulate_scalar,
)

__all__ = [
    "EventQueue",
    "Simulator",
    "EnergyAccount",
    "DataPacket",
    "DeliveryRecord",
    "SimulationConfig",
    "SimulationResult",
    "simulate_protocol",
    "simulate_protocol_batched",
    "simulate_scalar",
]
