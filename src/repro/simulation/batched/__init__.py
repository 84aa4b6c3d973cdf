"""Array-batched replication engine for the duty-cycle simulator.

The scalar driver (:mod:`repro.simulation.runner`) pays Python object
dispatch for every event of every replication: behaviour method calls,
``EnergyAccount`` dict updates, ``DataPacket`` instances, per-draw RNG
round-trips.  This package re-implements the same simulation as a lean
per-replication event loop over flat arrays — list-indexed node state,
tuple events, closure hop planners and block-vectorized RNG draws — and is
proven **bit-identical** to the scalar engine by a differential test
harness (``tests/simulation/test_batched_differential.py``).

Entry point: :func:`simulate_protocol_batched` runs R independently seeded
replications of one protocol configuration; ``simulate_protocol`` runs
every simulation through it.  All four built-in behaviours (X-MAC, LMAC,
DMAC, SCP-MAC) have registered batch kernels and run on the fast path;
user-registered behaviours without a kernel fall back to the scalar driver
per replication, and can opt in via :func:`register_batch_kernel`.
"""

from repro.simulation.batched.engine import simulate_protocol_batched
from repro.simulation.batched.kernels import (
    BatchKernel,
    DMACBatchKernel,
    LMACBatchKernel,
    SCPMACBatchKernel,
    XMACBatchKernel,
    batch_kernel_for,
    register_batch_kernel,
)

__all__ = [
    "BatchKernel",
    "DMACBatchKernel",
    "LMACBatchKernel",
    "SCPMACBatchKernel",
    "XMACBatchKernel",
    "batch_kernel_for",
    "register_batch_kernel",
    "simulate_protocol_batched",
]
