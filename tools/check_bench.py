"""Benchmark gate: what one process measures, never absolute throughput.

Run from the repository root (CI's bench-smoke job does, right after the
simulator and service benchmarks write their artifacts)::

    python tools/check_bench.py --fresh BENCH_simulator.json \
        --service BENCH_service.json

Every protocol with a batched kernel (:data:`BATCHED_PROTOCOLS`) must be in
the artifact's ``batched`` section with a ``speedup_vs_scalar`` of at least
``--min-batched-speedup`` (default 5×, ``0`` disables).  That speedup is a
ratio of the batched engine over the scalar reference simulator on the same
seeds in the same process, so it follows the code, not the runner's speed: a
batched event loop made 3× slower fails it on any host.  Absolute events/s
are not gated, since a committed baseline of them tracked the speed of the
host that recorded it (the same code read 0.47–0.59× of one on one host and
1.78–2.83× on another).

``--service BENCH_service.json`` additionally gates the experiment
service's warm-hit throughput against the absolute
``--min-service-warm-rps`` floor (warm hits serve stored bytes, so even a
slow runner clears a conservative floor unless the serving path itself
regressed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Expected artifact identity (see ``benchmarks/bench_simulator.py``).
BENCH_SCHEMA = "repro.bench.simulator"
BENCH_SCHEMA_VERSION = 1

#: Service bench artifact identity (see ``benchmarks/bench_service.py``).
SERVICE_SCHEMA = "repro.bench.service"
SERVICE_SCHEMA_VERSION = 1

#: The protocols whose batched kernel the simulator bench times; one
#: missing from the artifact is lost coverage, and fails the gate.
BATCHED_PROTOCOLS = ("dmac", "lmac", "scpmac", "xmac")


def load_artifact(path: Path, schema: str, version: int) -> Dict[str, object]:
    """Load and sanity-check one bench artifact.

    Args:
        path: The artifact file.
        schema: The ``schema`` it must name.
        version: The ``schema_version`` it must carry.

    Returns:
        The decoded payload.

    Raises:
        SystemExit: with a one-line message when the file is missing,
            unparsable, or not an artifact of ``schema`` and ``version``.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        sys.exit(f"error: bench artifact not found: {path}")
    except json.JSONDecodeError as error:
        sys.exit(f"error: {path} is not valid JSON: {error}")
    if not isinstance(payload, dict) or payload.get("schema") != schema:
        sys.exit(f"error: {path} is not a {schema!r} artifact")
    if payload.get("schema_version") != version:
        sys.exit(
            f"error: {path} has schema_version {payload.get('schema_version')!r}, "
            f"expected {version}"
        )
    return payload


def batched_speedups(payload: Dict[str, object]) -> Dict[str, float]:
    """Per-protocol ``speedup_vs_scalar`` of the ``batched`` section,
    skipping malformed entries."""
    section = payload.get("batched")
    result: Dict[str, float] = {}
    if not isinstance(section, dict):
        return result
    for name, row in section.items():
        if isinstance(row, dict):
            speedup = row.get("speedup_vs_scalar")
            if isinstance(speedup, (int, float)) and speedup > 0:
                result[str(name)] = float(speedup)
    return result


def check_batched_speedups(speedups: Dict[str, float], floor: float) -> List[str]:
    """Enforce the batched-vs-scalar speedup floor on every batched protocol.

    Args:
        speedups: Measured speedups (:func:`batched_speedups`).
        floor: Required ``speedup_vs_scalar``; ``0`` disables.

    Returns:
        The list of failure messages (empty when the floor holds).
    """
    failures: List[str] = []
    for name in BATCHED_PROTOCOLS:
        if name not in speedups:
            failures.append(f"batched {name}: missing from the artifact")
            print(f"FAIL batched {name}: no usable speedup_vs_scalar in the artifact")
            continue
        if floor <= 0:
            print(f"NOTE batched {name}: {speedups[name]:.1f}x vs scalar (floor disabled)")
            continue
        line = f"batched {name}: {speedups[name]:.1f}x vs scalar (floor {floor:g}x)"
        if speedups[name] < floor:
            failures.append(f"batched {name}: {speedups[name]:.1f}x < {floor:g}x speedup floor")
            print(f"FAIL {line}")
        else:
            print(f"OK   {line}")
    return failures


def check_service_bench(
    payload: Dict[str, object], min_warm_rps: float
) -> List[str]:
    """Enforce the experiment-service warm-hit throughput floor.

    Warm requests are served from the queue's result file — no solving —
    so unlike raw solver throughput an *absolute* floor travels across
    machines: anything below ``min_warm_rps`` means the HTTP/queue path
    itself regressed (e.g. an accidental re-execution per request).
    ``0`` disables the check.

    Returns:
        The list of failure messages (empty when the floor holds).
    """
    failures: List[str] = []
    warm_rps = payload.get("warm_requests_per_second")
    if not isinstance(warm_rps, (int, float)) or warm_rps <= 0:
        failures.append("service: artifact has no usable warm_requests_per_second")
        print("FAIL service: no usable warm_requests_per_second in artifact")
        return failures
    cold = payload.get("cold_latency_seconds")
    if isinstance(cold, (int, float)):
        print(f"NOTE service: cold submit->result latency {cold:.3f}s (not gated)")
    if min_warm_rps <= 0:
        print(f"NOTE service: warm hits {warm_rps:,.0f} req/s (floor disabled)")
        return failures
    line = f"service: warm hits {warm_rps:,.0f} req/s (floor {min_warm_rps:g})"
    if warm_rps < min_warm_rps:
        failures.append(
            f"service: {warm_rps:,.0f} warm req/s < {min_warm_rps:g} floor"
        )
        print(f"FAIL {line}")
    else:
        print(f"OK   {line}")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        type=Path,
        default=Path("BENCH_simulator.json"),
        help="freshly generated simulator bench artifact to gate",
    )
    parser.add_argument(
        "--min-batched-speedup",
        type=float,
        default=5.0,
        help="required batched-engine speedup_vs_scalar of every protocol "
        "(0 disables)",
    )
    parser.add_argument(
        "--service",
        type=Path,
        default=None,
        metavar="PATH",
        help="also gate a BENCH_service.json artifact "
        "(see benchmarks/bench_service.py)",
    )
    parser.add_argument(
        "--min-service-warm-rps",
        type=float,
        default=25.0,
        help="required warm-hit throughput of the experiment service in "
        "requests/second (absolute floor; 0 disables)",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.min_batched_speedup < 0:
        sys.exit(
            "error: --min-batched-speedup must be >= 0, "
            f"got {args.min_batched_speedup}"
        )

    payload = load_artifact(args.fresh, BENCH_SCHEMA, BENCH_SCHEMA_VERSION)
    failures = check_batched_speedups(batched_speedups(payload), args.min_batched_speedup)
    gated = len(BATCHED_PROTOCOLS)
    if args.service is not None:
        failures += check_service_bench(
            load_artifact(args.service, SERVICE_SCHEMA, SERVICE_SCHEMA_VERSION),
            args.min_service_warm_rps,
        )
        gated += 1

    if failures:
        print(f"bench gate: {len(failures)} failure(s)")
        return 1
    print(f"bench gate: all {gated} gated entries within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
