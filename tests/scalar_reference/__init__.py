"""The scalar reference simulator: the oracle the production engine is held to.

Production runs every simulation on the flat-array engine of
:mod:`repro.simulation.batched`.  This package is an independent
implementation of the same discrete-event semantics built from Python
objects — an event queue of callbacks (:mod:`~scalar_reference.engine`),
per-node energy accounts, queues and packets, a shared-medium channel, and
one behaviour class per protocol on a shared duty-cycle MAC kernel
(:mod:`~scalar_reference.mac`).  It keeps its own model → behaviour map and
its own constants and never imports the production kernels, so the checks
built on it compare two implementations:

* ``tests/simulation/test_batched_differential.py`` — the seeded full-matrix
  differential and the campaign identity test;
* ``tests/simulation/test_kernel.py`` — golden traces on both simulators;
* ``tests/property/test_batched_engine.py`` — fuzzed scalar ≡ batched runs;
* ``benchmarks/bench_simulator.py`` — batched == scalar checks and the
  speedup that ``tools/check_bench.py`` gates.

pytest puts ``tests/`` on ``sys.path`` (``tests/conftest.py``), and
``benchmarks/conftest.py`` does the same for the benches, so this package
is imported as ``scalar_reference``.
"""

from scalar_reference.driver import simulate_scalar
from scalar_reference.energy import EnergyAccount
from scalar_reference.engine import Simulator
from scalar_reference.node import SensorNode

__all__ = ["EnergyAccount", "SensorNode", "Simulator", "simulate_scalar"]
