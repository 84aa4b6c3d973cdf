"""Persistent result store benchmark: cold solve vs warm store replay.

Runs one requirement sweep twice against the same on-disk
:class:`~repro.store.ResultStore` — a cold pass that actually solves (and
writes behind), and a warm pass in a fresh process-equivalent state (new
cache instance, same store) that must answer everything from disk.  The
bench reports both timings and the replay speedup, and asserts the store's
two contracts:

* the warm pass performs **zero** fresh solves (every lookup hits), and
* the warm rows are identical to the cold rows — decoding a stored
  solution loses nothing.

A second timing measures raw store round-trip throughput (puts then gets
of the same records) to keep an eye on the codec + fsync-free atomic
rename cost itself.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BENCH_GRID, print_series
from repro.api import ExperimentSpec, run_experiment, runner_for
from repro.store import ResultStore

#: The swept delay bounds; enough units that replay wins measurably, and
#: comfortably feasible even at the CI smoke grid (infeasible cells are
#: recorded as data, not stored, so they would dirty the warm-pass counts).
DELAYS = [round(0.4 + 0.05 * step, 2) for step in range(12)]


def _sweep_spec() -> ExperimentSpec:
    return (
        ExperimentSpec.experiment("sweep", name="bench-store-sweep")
        .with_scenario("paper-default")
        .with_protocols("xmac", "lmac")
        .with_sweep("max_delay", DELAYS)
        .with_solver(grid_points=BENCH_GRID)
    )


def test_store_replay_beats_cold_solve(benchmark, tmp_path):
    spec = _sweep_spec()
    store_root = tmp_path / "store"

    started = time.perf_counter()
    cold = run_experiment(spec, runner=runner_for(spec, store=ResultStore(store_root)))
    cold_seconds = time.perf_counter() - started
    assert len(cold.ok_records) == len(cold.records), "sweep range must stay feasible"
    assert cold.telemetry["store_puts"] == len(cold.records)

    def warm_pass():
        # Fresh store handle *and* fresh cache: the replay must come from
        # disk, exactly like a resumed run in a new process.
        runner = runner_for(spec, store=ResultStore(store_root))
        return run_experiment(spec, runner=runner)

    warm = benchmark.pedantic(warm_pass, rounds=1, iterations=1)
    warm_seconds = benchmark.stats.stats.mean

    assert warm.telemetry["store_misses"] == 0
    assert warm.telemetry["store_puts"] == 0
    assert warm.telemetry["store_hits"] == len(warm.records)
    assert warm.rows() == cold.rows()

    print_series(
        f"store replay ({len(cold.records)} units, grid={BENCH_GRID})",
        [
            {
                "pass": "cold solve+put",
                "seconds": f"{cold_seconds:.3f}",
                "per_unit_ms": f"{1000 * cold_seconds / len(cold.records):.1f}",
            },
            {
                "pass": "warm replay",
                "seconds": f"{warm_seconds:.3f}",
                "per_unit_ms": f"{1000 * warm_seconds / len(warm.records):.1f}",
            },
            {
                "pass": "speedup",
                "seconds": f"{cold_seconds / max(warm_seconds, 1e-9):.1f}x",
                "per_unit_ms": "",
            },
        ],
    )


def test_store_roundtrip_throughput(benchmark, tmp_path):
    spec = _sweep_spec()
    seed_store = ResultStore(tmp_path / "seed")
    result = run_experiment(spec, runner=runner_for(spec, store=seed_store))
    records = [
        (digest, seed_store.get(digest)) for digest in seed_store.digests()
    ]
    assert records and all(payload is not None for _, payload in records)

    def roundtrip():
        target = ResultStore(tmp_path / "roundtrip")
        for digest, payload in records:
            target.put(digest, payload, kind="solve")
        return [target.get(digest) for digest, _ in records]

    replayed = benchmark.pedantic(roundtrip, rounds=1, iterations=1)
    assert replayed == [payload for _, payload in records]
    seconds = benchmark.stats.stats.mean
    print_series(
        "store round-trip",
        [
            {
                "records": len(records),
                "seconds": f"{seconds:.3f}",
                "records_per_second": f"{len(records) / max(seconds, 1e-9):,.0f}",
            }
        ],
    )
    assert result.telemetry["store_puts"] == len(records)
