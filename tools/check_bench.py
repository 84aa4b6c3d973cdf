"""Benchmark regression gate: fresh simulator throughput vs a baseline.

Run from the repository root (CI's bench-smoke job does, right after the
simulator benchmark regenerates ``BENCH_simulator.json``)::

    python tools/check_bench.py \
        --baseline benchmarks/BENCH_simulator.json \
        --fresh BENCH_simulator.json

Compares the per-protocol ``events_per_second`` of the fresh artifact
against the committed baseline:

* ratio below ``--fail-below`` (default 0.7×) → **regression**, exit 1;
* ratio above ``--warn-above`` (default 1.5×) → warning only — either the
  engine genuinely got faster (refresh the baseline) or the runner machine
  is not comparable, both worth a human look;
* anything in between → pass.

Protocols present in the baseline but missing from the fresh artifact are
failures (the bench silently losing coverage is itself a regression); new
protocols not yet in the baseline are reported but don't gate.

The artifact's ``batched`` section (the array-batched replication engine)
is gated the same way, plus an absolute floor: every batched protocol's
``speedup_vs_scalar`` must reach ``--min-batched-speedup`` (default 5×,
``0`` disables).  Repeatable ``--batched-speedup-floor NAME=RATIO`` flags
override the global floor per protocol (CI starts the freshly batched
dmac/scpmac kernels at 3×).  The speedup is a within-process ratio of the
two engines over the same seeds, so unlike raw throughput it is stable
across runner machines.

``--service BENCH_service.json`` additionally gates the experiment
service's warm-hit throughput against the absolute
``--min-service-warm-rps`` floor (no baseline needed: warm hits serve
stored bytes, so even a slow runner clears a conservative floor unless the
serving path itself regressed).

Throughput on shared CI runners is noisy, so the failure threshold is
deliberately loose: it catches "accidentally made the event loop 2× slower"
class regressions, not single-digit percentages.
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


def load_artifact(path: Path) -> Dict[str, object]:
    """Load and sanity-check one ``BENCH_simulator.json`` artifact.

    Args:
        path: The artifact file.

    Returns:
        The decoded payload.

    Raises:
        SystemExit: with a one-line message when the file is missing,
            unparsable, or not a simulator bench artifact.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        sys.exit(f"error: bench artifact not found: {path}")
    except json.JSONDecodeError as error:
        sys.exit(f"error: {path} is not valid JSON: {error}")
    if not isinstance(payload, dict) or payload.get("schema") != BENCH_SCHEMA:
        sys.exit(f"error: {path} is not a {BENCH_SCHEMA!r} artifact")
    if payload.get("schema_version") != BENCH_SCHEMA_VERSION:
        sys.exit(
            f"error: {path} has schema_version {payload.get('schema_version')!r}, "
            f"expected {BENCH_SCHEMA_VERSION}"
        )
    if not isinstance(payload.get("protocols"), dict):
        sys.exit(f"error: {path} has no per-protocol measurements")
    return payload


def throughputs(payload: Dict[str, object]) -> Dict[str, float]:
    """Per-protocol ``events_per_second``, skipping malformed entries."""
    result: Dict[str, float] = {}
    for name, row in payload["protocols"].items():  # type: ignore[union-attr]
        if isinstance(row, dict):
            value = row.get("events_per_second")
            if isinstance(value, (int, float)) and value > 0:
                result[str(name)] = float(value)
    return result


def batched_stats(payload: Dict[str, object]) -> Dict[str, Dict[str, float]]:
    """Per-protocol batched-engine stats; empty when the artifact predates
    the ``batched`` section (schema version 1 artifacts without it stay
    valid)."""
    section = payload.get("batched")
    result: Dict[str, Dict[str, float]] = {}
    if not isinstance(section, dict):
        return result
    for name, row in section.items():
        if not isinstance(row, dict):
            continue
        value = row.get("events_per_second")
        speedup = row.get("speedup_vs_scalar")
        if isinstance(value, (int, float)) and value > 0:
            result[str(name)] = {
                "events_per_second": float(value),
                "speedup_vs_scalar": (
                    float(speedup) if isinstance(speedup, (int, float)) else 0.0
                ),
            }
    return result


def parse_speedup_floor(spec: str) -> "tuple[str, float]":
    """Parse one ``--batched-speedup-floor NAME=RATIO`` argument."""
    name, separator, value = spec.partition("=")
    if not separator or not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME=RATIO, got {spec!r}"
        )
    try:
        ratio = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number") from None
    if ratio < 0:
        raise argparse.ArgumentTypeError(f"floor must be >= 0, got {ratio}")
    return name, ratio


def check_batched_speedups(
    fresh: Dict[str, Dict[str, float]],
    min_speedup: float,
    floors: Optional[Dict[str, float]] = None,
) -> List[str]:
    """Enforce the absolute batched-vs-scalar speedup floor.

    Args:
        fresh: Freshly measured batched stats (:func:`batched_stats`).
        min_speedup: Required ``speedup_vs_scalar``; ``0`` disables.
        floors: Per-protocol overrides of ``min_speedup`` (a protocol's
            floor of ``0`` disables the check for it alone).

    Returns:
        The list of failure messages (empty when the floor holds).
    """
    failures: List[str] = []
    floors = floors or {}
    for name in sorted(fresh):
        floor = floors.get(name, min_speedup)
        if floor <= 0:
            continue
        speedup = fresh[name]["speedup_vs_scalar"]
        line = f"batched {name}: {speedup:.1f}x vs scalar (floor {floor:g}x)"
        if speedup < floor:
            failures.append(
                f"batched {name}: {speedup:.1f}x < {floor:g}x speedup floor"
            )
            print(f"FAIL {line}")
        else:
            print(f"OK   {line}")
    for name in sorted(set(floors) - set(fresh)):
        failures.append(
            f"batched {name}: speedup floor configured but protocol missing "
            f"from the fresh artifact"
        )
        print(f"FAIL batched {name}: floored protocol missing from fresh artifact")
    return failures


def load_service_artifact(path: Path) -> Dict[str, object]:
    """Load and sanity-check one ``BENCH_service.json`` artifact."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        sys.exit(f"error: service bench artifact not found: {path}")
    except json.JSONDecodeError as error:
        sys.exit(f"error: {path} is not valid JSON: {error}")
    if not isinstance(payload, dict) or payload.get("schema") != SERVICE_SCHEMA:
        sys.exit(f"error: {path} is not a {SERVICE_SCHEMA!r} artifact")
    if payload.get("schema_version") != SERVICE_SCHEMA_VERSION:
        sys.exit(
            f"error: {path} has schema_version {payload.get('schema_version')!r}, "
            f"expected {SERVICE_SCHEMA_VERSION}"
        )
    return payload


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


def compare(
    baseline: Dict[str, float],
    fresh: Dict[str, float],
    fail_below: float,
    warn_above: float,
) -> List[str]:
    """Compare throughputs and print one line per protocol.

    Args:
        baseline: Committed per-protocol events/second.
        fresh: Freshly measured per-protocol events/second.
        fail_below: Failure threshold on ``fresh / baseline``.
        warn_above: Warning threshold on ``fresh / baseline``.

    Returns:
        The list of failure messages (empty when the gate passes).
    """
    failures: List[str] = []
    for name in sorted(baseline):
        if name not in fresh:
            failures.append(f"{name}: missing from the fresh artifact")
            print(f"FAIL {name}: baseline has it, fresh artifact does not")
            continue
        ratio = fresh[name] / baseline[name]
        line = (
            f"{name}: {fresh[name]:,.0f} events/s vs baseline "
            f"{baseline[name]:,.0f} ({ratio:.2f}x)"
        )
        if ratio < fail_below:
            failures.append(f"{name}: {ratio:.2f}x < {fail_below}x floor")
            print(f"FAIL {line}")
        elif ratio > warn_above:
            print(f"WARN {line} — faster than the baseline; consider refreshing it")
        else:
            print(f"OK   {line}")
    for name in sorted(set(fresh) - set(baseline)):
        print(f"NOTE {name}: not in the baseline yet ({fresh[name]:,.0f} events/s)")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("benchmarks/BENCH_simulator.json"),
        help="committed baseline artifact",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        default=Path("BENCH_simulator.json"),
        help="freshly generated artifact to gate",
    )
    parser.add_argument(
        "--fail-below",
        type=float,
        default=0.7,
        help="fail when fresh/baseline throughput drops below this ratio",
    )
    parser.add_argument(
        "--warn-above",
        type=float,
        default=1.5,
        help="warn when fresh/baseline throughput exceeds this ratio",
    )
    parser.add_argument(
        "--min-batched-speedup",
        type=float,
        default=5.0,
        help="required batched-engine speedup_vs_scalar (0 disables)",
    )
    parser.add_argument(
        "--batched-speedup-floor",
        type=parse_speedup_floor,
        action="append",
        default=[],
        metavar="NAME=RATIO",
        help="per-protocol override of --min-batched-speedup (repeatable); "
        "a floored protocol missing from the fresh artifact fails the gate",
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
        "requests/second (absolute floor, no baseline; 0 disables)",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    if not 0 < args.fail_below <= 1:
        sys.exit(f"error: --fail-below must be in (0, 1], got {args.fail_below}")
    if args.warn_above < 1:
        sys.exit(f"error: --warn-above must be >= 1, got {args.warn_above}")
    if args.min_batched_speedup < 0:
        sys.exit(
            "error: --min-batched-speedup must be >= 0, "
            f"got {args.min_batched_speedup}"
        )

    baseline_payload = load_artifact(args.baseline)
    fresh_payload = load_artifact(args.fresh)
    baseline = throughputs(baseline_payload)
    fresh = throughputs(fresh_payload)
    if not baseline:
        sys.exit(f"error: {args.baseline} contains no usable throughput entries")

    failures = compare(baseline, fresh, args.fail_below, args.warn_above)

    # The batched section gates like the scalar one (a batched protocol
    # vanishing from the fresh artifact is a lost-coverage failure) …
    baseline_batched = batched_stats(baseline_payload)
    fresh_batched = batched_stats(fresh_payload)
    failures += compare(
        {f"batched/{name}": row["events_per_second"] for name, row in baseline_batched.items()},
        {f"batched/{name}": row["events_per_second"] for name, row in fresh_batched.items()},
        args.fail_below,
        args.warn_above,
    )
    # … plus the absolute speedup floor on the fresh measurements.
    failures += check_batched_speedups(
        fresh_batched,
        args.min_batched_speedup,
        dict(args.batched_speedup_floor),
    )

    gated = len(baseline) + len(set(baseline_batched) | set(fresh_batched))
    if args.service is not None:
        failures += check_service_bench(
            load_service_artifact(args.service), args.min_service_warm_rps
        )
        gated += 1

    if failures:
        print(f"bench gate: {len(failures)} regression(s) vs {args.baseline}")
        return 1
    print(f"bench gate: all {gated} gated entries within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
