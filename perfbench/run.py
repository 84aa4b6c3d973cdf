"""End-to-end benchmark of the experiment pipeline, with a layer trace.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve-matrix --seed 1 --seconds 10 --trace 0

Workloads (see :mod:`workloads`): ``solve-matrix`` (cold game solves of every
scenario preset × protocol), ``pooled-campaign`` (validation campaigns on a
two-worker process pool) and ``warm-service`` (jobs served by the experiment
service from a warm result store).

A run makes its inputs from ``--seed``, sets up, then times whole passes
over the inputs until ``--seconds`` have elapsed, checking every result.
Operations run in slices of about half a second; between slices the host's
speed is measured (see :mod:`calibration`) and every timing of a slice is
scaled to the reference host speed.  The last line of standard output is
one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

* ``throughput`` — operations completed per second of the measured window
  (for the service's closed loop of two clients, also their mean latency:
  two over the throughput);
* ``peak_rss_mb`` — peak resident memory of the benchmark process;
* ``setup_s`` — median, over five fresh processes, of the time from launch
  to ready for the first operation (interpreter start, imports, input
  parsing and planning, and for the service its start on the warm store).

Per-operation latency is not among them: the operations of a pass differ
in size, so their median moves with the seed far more than their total.
With ``--trace 1`` the program's layer boundaries are wrapped (see
:mod:`tracing`) and the metrics are per operation: self time in each layer
in ms, call counts, and the median operation latency under tracing.
Standard error gets the wall-clock figures before scaling.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 5
#: Ceiling on one set-up probe, in seconds.
PROBE_TIMEOUT_S = 60.0
#: Shortest slice of operations between two host speed measurements.
SLICE_S = 0.5


def _bootstrap() -> None:
    """Make the program importable from its source tree, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _parse(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe",
        metavar="SCRATCH",
        help="internal: set up in this fresh process, print 'ready', exit",
    )
    return parser.parse_args(argv)


def _setup_seconds(args: argparse.Namespace, scratch: Path) -> float:
    """Median reference seconds from launching a fresh process to 'ready'."""
    from calibration import REFERENCE_S, reference_seconds

    calibrations = [reference_seconds()]
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(_probe(args, scratch))
        calibrations.append(reference_seconds())
    return statistics.median(probes) * REFERENCE_S / statistics.fmean(calibrations)


def _probe(args: argparse.Namespace, scratch: Path) -> float:
    """Wall-clock seconds from launching a fresh process to its 'ready' line."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--probe", str(scratch),
    ]
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=str(ROOT), text=True)
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - started
        process.stdout.read()
        process.wait(PROBE_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if line.strip() != "ready" or process.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {process.returncode})")
    return elapsed


def _measure(workload, seconds: float, tracer) -> Dict[str, float]:
    """Run whole passes of operations, in calibrated slices, for ``seconds``."""
    from calibration import REFERENCE_S, reference_seconds

    per_pass = len(workload.items)
    lock = threading.Lock()
    counter = itertools.count()
    closed = False
    raw_elapsed = 0.0
    latencies: List[float] = []
    failed = 0

    def run_slice(deadline: float, started: float) -> List[float]:
        """Latencies of the operations one slice ran (failures counted)."""
        slice_latencies: List[float] = []

        def take() -> Optional[int]:
            nonlocal closed
            with lock:
                now = time.perf_counter()
                if closed or now >= deadline:
                    return None
                index = next(counter)
                if index % per_pass == 0 and raw_elapsed + now - started >= seconds:
                    closed = True  # whole passes only
                    return None
                return index

        def client() -> None:
            nonlocal failed
            index = take()
            while index is not None:
                began = time.perf_counter()
                try:
                    if tracer is None:
                        result = workload.execute(index)
                    else:
                        with tracer.span("op"):
                            result = workload.execute(index)
                    latency = time.perf_counter() - began
                    ok = workload.check(index, result)
                except Exception as error:  # noqa: BLE001 - counted as a failed operation
                    print(f"operation {index} failed: {error!r}", file=sys.stderr)
                    latency, ok = time.perf_counter() - began, False
                with lock:
                    slice_latencies.append(latency)
                    failed += not ok
                index = take()

        if workload.clients == 1:
            client()
        else:
            threads = [threading.Thread(target=client) for _ in range(workload.clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return slice_latencies

    # Each slice is scaled by the host speed measured at its two ends.
    scaled_elapsed = 0.0
    raw_latencies: List[float] = []
    before = reference_seconds()
    while not closed:
        started = time.perf_counter()
        slice_latencies = run_slice(started + SLICE_S, started)
        duration = time.perf_counter() - started
        after = reference_seconds()
        factor = 2.0 * REFERENCE_S / (before + after)
        before = after
        raw_elapsed += duration
        scaled_elapsed += duration * factor
        raw_latencies.extend(slice_latencies)
        latencies.extend(latency * factor for latency in slice_latencies)
    return {
        "attempted": len(latencies),
        "failed": failed,
        "latency_ms": statistics.median(latencies) * 1000.0,
        "throughput": len(latencies) / scaled_elapsed,
        "factor": scaled_elapsed / raw_elapsed,
        "raw_latency_ms": statistics.median(raw_latencies) * 1000.0,
        "raw_throughput": len(latencies) / raw_elapsed,
    }


def _layer_metrics(
    snapshot: Dict[str, Dict[str, float]], operations: int, factor: float
) -> Dict[str, float]:
    """Per-operation layer self times (reference ms) and counts."""
    per_op = 1.0 / operations
    ms = 1000.0 * factor * per_op
    metrics: Dict[str, float] = {"op_self_ms": snapshot["op"]["self_s"] * ms}
    for layer, values in snapshot.items():
        if layer not in ("op", "counters"):
            metrics[f"{layer}_ms"] = values["self_s"] * ms
    counters = snapshot["counters"]
    waits = counters["queue_waits"]
    metrics["queue_wait_ms"] = (
        counters["queue_wait_s"] * 1000.0 * factor / waits if waits else 0.0
    )
    metrics["game_solves"] = snapshot["game"]["calls"] * per_op
    metrics["simulations"] = snapshot["simulate"]["calls"] * per_op
    metrics["store_hits"] = counters["store_hits"] * per_op
    metrics["http_requests"] = snapshot["http"]["calls"] * per_op
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    _bootstrap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.probe:
        WORKLOADS[args.workload](args.seed, Path(args.probe)).probe(
            lambda: print("ready", flush=True)
        )
        return 0

    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    tracer = None
    try:
        workload.prepare()
        if not args.trace:
            setup = _setup_seconds(args, scratch)
        workload.start()
        workload.warm_up()
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        measured = _measure(workload, args.seconds, tracer)
        if tracer is not None:
            snapshot = tracer.snapshot()
            tracer.uninstall()
        correct = workload.finish() and measured["failed"] == 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    print(
        f"{args.workload}: {measured['attempted']} ops, wall-clock median "
        f"{measured['raw_latency_ms']:.3f} ms, {measured['raw_throughput']:.4f} ops/s, "
        f"host speed factor {measured['factor']:.4f}",
        file=sys.stderr,
    )
    if tracer is None:
        metrics = {
            "throughput": (measured["throughput"], "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (setup, "s"),
        }
    else:
        metrics = {"traced_latency_ms": (measured["latency_ms"], "ms")}
        layers = _layer_metrics(snapshot, measured["attempted"], measured["factor"])
        metrics.update(
            (name, (value, "ms" if name.endswith("_ms") else "count"))
            for name, value in layers.items()
        )
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": measured["attempted"],
                "failed": measured["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
