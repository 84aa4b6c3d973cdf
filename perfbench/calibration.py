"""Host speed calibration, so that timings taken on a drifting host compare.

Shared hosts change speed by tens of percent over seconds.  The benchmark
therefore times a fixed reference job — an SLSQP solve of a constrained
Rosenbrock problem, the same kind of SciPy work the game solver does —
between slices of operations, and scales every timing of a slice by
``REFERENCE_S`` over the reference job's duration at the slice's ends.  A
host that runs the reference job in exactly ``REFERENCE_S`` reports plain
wall-clock time.  The reference job uses only NumPy and SciPy, never the
program, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import time

import numpy as np
from scipy import optimize

#: Duration of one reference job on the reference host, in seconds.
REFERENCE_S = 0.04

#: SLSQP solves making up one reference job.
_SOLVES = 2
_START = np.array([-1.2, 1.0, 0.5, -0.3])
_CONSTRAINTS = ({"type": "ineq", "fun": lambda x: 3.0 - x[0] ** 2 - x[1] ** 2},)


def _rosenbrock(x: np.ndarray) -> float:
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def reference_seconds() -> float:
    """Wall-clock seconds the reference job takes now.

    The garbage collector is paused meanwhile, so the size of the program's
    heap cannot lengthen the measurement.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(_SOLVES):
            optimize.minimize(
                _rosenbrock,
                _START,
                method="SLSQP",
                constraints=_CONSTRAINTS,
                options={"maxiter": 200},
            )
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
