"""Every bit of the ring deployments the simulator runs on, pinned by one digest.

The digest covers the shapes of the scenario presets and two shapes too
sparse to deploy, each at seeds 0–19: for a deployment, its position bits,
``indptr``, ``indices``, ``ring`` and ``parent`` (little-endian float64 and
int64); for a refusal, its text.  :data:`DIGEST` was computed through the
dict format these arrays replaced (an ``{id: neighbours}`` graph and a
``{child: parent}`` tree, rows in id order), in the same encoding, with each
refusal's verdict (disconnected, or the depth produced) written in today's
text.  So a change that moves one position bit, link, ring or parent, or
one refusal, fails here.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.exceptions import ConfigurationError
from repro.network.deployment import ring_deployment

#: (depth, density): paper-default and its variants (5, 8), dense-ring
#: (5, 16), sparse-ring (8, 4); then (3, 2), disconnected at every seed,
#: and (3, 3), too deep at every seed.
SHAPES = [(5, 8), (5, 16), (8, 4), (3, 2), (3, 3)]

SEEDS = range(20)

DIGEST = "b80bf4a621cbd6b8220f0b0b17f2ccb50336f6b4268b9a7221cdfb67eedbb5bf"


def _encode(deployment) -> bytes:
    arrays = [
        (deployment.positions, "<f8"),
        (deployment.indptr, "<i8"),
        (deployment.indices, "<i8"),
        (deployment.ring, "<i8"),
        (deployment.parent, "<i8"),
    ]
    return b"ok\n" + b"".join(
        np.ascontiguousarray(array, dtype=dtype).tobytes() for array, dtype in arrays
    )


def test_ring_deployments_keep_every_bit():
    digest = hashlib.sha256()
    outcomes = {"ok": 0, "refused": 0}
    for depth, density in SHAPES:
        for seed in SEEDS:
            digest.update(f"{depth} {density} {seed}\n".encode())
            try:
                deployment = ring_deployment(depth, density, seed=seed)
            except ConfigurationError as error:
                digest.update(b"refused\n" + str(error).encode())
                outcomes["refused"] += 1
                continue
            digest.update(_encode(deployment))
            outcomes["ok"] += 1
    assert outcomes == {"ok": 60, "refused": 40}
    assert digest.hexdigest() == DIGEST
