"""Packet-level discrete-event simulator of duty-cycled MAC protocols.

The paper is purely analytical; this subpackage provides the evaluation
substrate it leans on: an operational, event-driven simulation of X-MAC,
DMAC, LMAC and SCP-MAC on a concrete gathering tree, with per-node
radio-state energy accounting and per-packet end-to-end delay measurement.
It is used to validate the analytical models (see
:mod:`repro.analysis.validation` and :mod:`repro.validation`).

Fidelity level: the simulator works at the granularity of *forwarding
operations* (channel polls, strobe trains, slots, data/ack exchanges), not
individual symbols; carrier-sense deferral models contention.  This is the
level the Langendoen & Meier analysis itself is written at, so analytical and
simulated quantities are directly comparable.

* :mod:`repro.simulation.runner` — the entry point
  :func:`~repro.simulation.runner.simulate_protocol`, its
  :class:`~repro.simulation.runner.SimulationConfig` and
  :class:`~repro.simulation.runner.SimulationResult`, the
  :class:`~repro.simulation.runner.ReplicationMeasurement` a validation
  compares, and the checks that refuse a run before anything is built.
* :mod:`repro.simulation.batched` — the simulator itself: a flat-array
  replication loop and one kernel per protocol.

The scalar reference simulator that the differential tests hold this one
to, bit for bit, lives in ``tests/scalar_reference/``.
"""

from repro.simulation.batched import simulate_protocol_batched
from repro.simulation.runner import (
    ReplicationMeasurement,
    SimulationConfig,
    SimulationResult,
    simulate_protocol,
)

__all__ = [
    "ReplicationMeasurement",
    "SimulationConfig",
    "SimulationResult",
    "simulate_protocol",
    "simulate_protocol_batched",
]
