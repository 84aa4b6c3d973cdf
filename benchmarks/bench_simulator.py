"""Packet-level simulator benchmark: events/second per protocol.

Times one fixed scenario through all four MAC simulators (X-MAC, DMAC,
LMAC, SCP-MAC) and reports the event-engine throughput, then fans a batch
of independently seeded replications out over the runtime's process pool
and asserts the runtime guarantee extended to simulation workloads: the
per-replication metrics of a parallel fan-out are identical to a serial
loop.  Both stages run the scalar reference simulator (``simulate_scalar``
from ``tests/scalar_reference/``, which ``benchmarks/conftest.py`` puts on
the path).  A third stage times the array-batched replication engine — the
production path — against a scalar loop over the same seeds, best of
:data:`ROUNDS` each, asserts the results are bit-identical, and records the
``speedup_vs_scalar`` that ``tools/check_bench.py`` gates against each
protocol's own floor (absolute events/s follow the host and are not gated).
The horizon keeps each replication's event loop busy enough to outweigh
its set-up, so an event loop that takes 3× its time cuts every protocol's
speedup to about 0.4 of its own.  The measurements are written to
``BENCH_simulator.json`` (uploaded by the CI bench-smoke job).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Tuple

from benchmarks.conftest import BENCH_WORKERS, assert_speedup_if_required, print_series
from repro.network.topology import RingTopology
from repro.protocols.registry import create_protocol
from repro.runtime import build_runner
from repro.scenario import Scenario
from repro.simulation import SimulationConfig, simulate_protocol_batched
from scalar_reference import simulate_scalar

#: Fixed benchmark environment: small enough to run routinely, busy enough
#: (one sample per node per minute) that the event loop dominates.
SCENARIO = Scenario(topology=RingTopology(depth=3, density=4), sampling_rate=1.0 / 60.0)

#: Mid-box parameter vector per protocol (the bench measures the engine,
#: not the optimizer, so any admissible point works).
PROTOCOL_PARAMS = {
    "xmac": {"wakeup_interval": 0.3},
    "dmac": {"frame_length": 1.0},
    "lmac": {"slot_length": 0.02, "slot_count": 9.0},
    "scpmac": {"poll_interval": 0.3},
}

HORIZON = 1200.0
REPLICATIONS = 6
#: Timings per side of the batched-vs-scalar comparison; the best counts.
ROUNDS = 3

#: Protocols with an array-batched kernel (see repro.simulation.batched) —
#: since the engine-completion PR, all four of them.
BATCHED_PROTOCOLS = ("dmac", "lmac", "scpmac", "xmac")

ARTIFACT = Path("BENCH_simulator.json")


def _simulate(payload: Tuple[object, dict, SimulationConfig]) -> Tuple[int, float, float, int]:
    """One replication's comparison key (module-level for process pools)."""
    model, params, config = payload
    result = simulate_scalar(model, params, config)
    return (
        config.seed,
        result.bottleneck_ring_energy,
        result.max_ring_delay(),
        result.delivered_packets,
    )


def test_simulator_throughput_and_parallel_replications(benchmark):
    artifact = {
        "schema": "repro.bench.simulator",
        "schema_version": 1,
        "scenario": {"depth": 3, "density": 4, "sampling_period_s": 60.0},
        "horizon_s": HORIZON,
        "protocols": {},
        "replications": {},
        "batched": {},
    }

    # Stage 1: events/second per protocol, one seeded run each.
    rows = []
    for name, params in PROTOCOL_PARAMS.items():
        model = create_protocol(name, SCENARIO)
        started = time.perf_counter()
        result = simulate_scalar(model, params, SimulationConfig(horizon=HORIZON, seed=1))
        seconds = time.perf_counter() - started
        events_per_second = result.processed_events / seconds
        artifact["protocols"][name] = {
            "events": result.processed_events,
            "seconds": seconds,
            "events_per_second": events_per_second,
            "delivered": result.delivered_packets,
        }
        rows.append(
            {
                "protocol": name,
                "events": result.processed_events,
                "events_per_s": round(events_per_second),
                "delivery": round(result.delivery_ratio, 3),
            }
        )
        assert result.processed_events > 0
        assert result.delivered_packets > 0
    print_series("Simulator throughput (events/second)", rows)

    # Stage 2: replication fan-out, serial loop vs process pool — identical
    # metrics, submission order preserved.
    model = create_protocol("scpmac", SCENARIO)
    payloads = [
        (model, PROTOCOL_PARAMS["scpmac"], SimulationConfig(horizon=HORIZON, seed=seed))
        for seed in range(1, REPLICATIONS + 1)
    ]
    serial_started = time.perf_counter()
    serial = [_simulate(payload) for payload in payloads]
    serial_seconds = time.perf_counter() - serial_started

    parallel_started = time.perf_counter()
    parallel = benchmark.pedantic(
        lambda: build_runner(workers=BENCH_WORKERS, use_cache=False).executor.map_ordered(
            _simulate, payloads
        ),
        rounds=1,
        iterations=1,
    )
    parallel_seconds = time.perf_counter() - parallel_started

    assert parallel == serial
    speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else 1.0
    artifact["replications"] = {
        "count": REPLICATIONS,
        "workers": BENCH_WORKERS,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": speedup,
    }
    print_series(
        f"Replication fan-out {REPLICATIONS}x — serial {serial_seconds:.2f}s "
        f"vs process[{BENCH_WORKERS}] {parallel_seconds:.2f}s",
        [{"seed": seed, "energy": energy, "delay": delay} for seed, energy, delay, _ in serial],
    )

    # Stage 3: array-batched replication engine vs a scalar loop over the
    # same seeds — the differential guarantee (bit-identical results) and
    # the throughput win are measured back to back in the same process.
    batched_rows = []
    for name in BATCHED_PROTOCOLS:
        model = create_protocol(name, SCENARIO)
        params = PROTOCOL_PARAMS[name]
        configs = [
            SimulationConfig(horizon=HORIZON, seed=seed)
            for seed in range(1, REPLICATIONS + 1)
        ]

        scalar_seconds = batched_seconds = float("inf")
        for _ in range(ROUNDS):
            scalar_started = time.perf_counter()
            scalar_results = [simulate_scalar(model, params, config) for config in configs]
            scalar_seconds = min(scalar_seconds, time.perf_counter() - scalar_started)

            batched_started = time.perf_counter()
            batched_results = simulate_protocol_batched(model, params, configs)
            batched_seconds = min(batched_seconds, time.perf_counter() - batched_started)

        for config, scalar_result, batched_result in zip(
            configs, scalar_results, batched_results
        ):
            assert batched_result.as_dict() == scalar_result.as_dict(), (
                f"batched {name} diverged from scalar at seed {config.seed}"
            )
        total_events = sum(result.processed_events for result in batched_results)
        batched_eps = total_events / batched_seconds if batched_seconds > 0 else 0.0
        engine_speedup = scalar_seconds / batched_seconds if batched_seconds > 0 else 1.0
        artifact["batched"][name] = {
            "replications": REPLICATIONS,
            "events": total_events,
            "seconds": batched_seconds,
            "events_per_second": batched_eps,
            "scalar_seconds": scalar_seconds,
            "speedup_vs_scalar": engine_speedup,
        }
        batched_rows.append(
            {
                "protocol": name,
                "events": total_events,
                "events_per_s": round(batched_eps),
                "speedup": round(engine_speedup, 1),
            }
        )
        # Sanity floor only — each protocol's own floor is gated by
        # tools/check_bench.py (BATCHED_SPEEDUP_FLOORS).
        assert engine_speedup > 1.0, (
            f"batched {name} slower than scalar ({engine_speedup:.2f}x)"
        )
    print_series(
        f"Batched replication engine ({REPLICATIONS} seeds, bit-identical)",
        batched_rows,
    )

    ARTIFACT.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert_speedup_if_required(speedup)
