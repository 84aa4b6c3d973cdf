"""The simulator: array-batched replications of one protocol configuration.

:func:`simulate_protocol_batched` runs R independently seeded replications
of one configuration, each as a lean event loop over flat arrays
(:mod:`repro.simulation.batched.engine`), and ``simulate_protocol`` runs
every simulation through it.  The per-protocol arithmetic lives in one
kernel per built-in model — X-MAC, LMAC, DMAC and SCP-MAC
(:mod:`repro.simulation.batched.kernels`) — and the kernel map there alone
decides which protocols can be simulated; any other model gets a named
:class:`~repro.exceptions.SimulationError`.
"""

from repro.simulation.batched.engine import simulate_protocol_batched
from repro.simulation.batched.kernels import (
    BatchKernel,
    DMACBatchKernel,
    LMACBatchKernel,
    SCPMACBatchKernel,
    XMACBatchKernel,
    batch_kernel_for,
)

__all__ = [
    "BatchKernel",
    "DMACBatchKernel",
    "LMACBatchKernel",
    "SCPMACBatchKernel",
    "XMACBatchKernel",
    "batch_kernel_for",
    "simulate_protocol_batched",
]
