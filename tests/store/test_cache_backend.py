"""The runner's fan-out × ResultStore: read-through, write-behind, bad payloads."""

from __future__ import annotations

import pytest

from repro.core.tradeoff import EnergyDelayGame
from repro.runtime import BatchRunner, SolveTask
from repro.runtime.keys import freeze, key_digest, model_fingerprint, solve_key
from repro.simulation import SimulationConfig
from repro.store import ResultStore, StoreWarning, solution_to_payload
from repro.validation.campaign import REPLICATIONS, simulate_replications

FAST = {"grid_points_per_dimension": 15}


def _task(model, requirements):
    return SolveTask(model=model, requirements=requirements, solver_options=dict(FAST))


def _runner(path):
    return BatchRunner(cache=True, store=ResultStore(path))


class TestReadThroughWriteBehind:
    def test_put_writes_behind_to_disk(self, tmp_path, xmac, requirements):
        store = ResultStore(tmp_path / "store")
        BatchRunner(cache=True, store=store).run([_task(xmac, requirements)])
        assert store.stats().puts == 1
        assert key_digest(solve_key(xmac, requirements, FAST)) in store

    def test_fresh_cache_reads_through(self, tmp_path, xmac, requirements):
        solution = EnergyDelayGame(xmac, requirements, **FAST).solve()
        _runner(tmp_path / "store").run([_task(xmac, requirements)])

        # A new runner over a new store instance (a new process, same
        # directory) answers from disk.
        cold = _runner(tmp_path / "store")
        [outcome] = cold.run([_task(xmac, requirements)])
        assert outcome.solution == solution
        assert cold.traffic() == (1, 0, 0)

    def test_every_run_reads_the_store(self, tmp_path, xmac, requirements):
        _runner(tmp_path / "store").run([_task(xmac, requirements)])

        warm_store = ResultStore(tmp_path / "store")
        runner = BatchRunner(cache=True, store=warm_store)
        runner.run([_task(xmac, requirements)])
        runner.run([_task(xmac, requirements)])
        # No memory tier: each run reads the record again.
        assert warm_store.stats().hits == 2
        assert runner.traffic() == (2, 0, 0)

    def test_hit_does_not_rewrite_store(self, tmp_path, xmac, requirements):
        store = ResultStore(tmp_path / "store")
        runner = BatchRunner(cache=True, store=store)
        runner.run([_task(xmac, requirements)])
        runner.run([_task(xmac, requirements)])
        runner.run([_task(xmac, requirements)])
        assert store.stats().puts == 1

    def test_record_under_a_revisionless_key_is_a_miss(self, tmp_path, xmac, requirements):
        # Solve records written before the solver revision joined the key
        # hold the multi-start hybrid's numbers; they must not be replayed.
        store = ResultStore(tmp_path / "store")
        solution = EnergyDelayGame(xmac, requirements, **FAST).solve()
        old_key = (
            "solve",
            model_fingerprint(xmac),
            freeze(requirements),
            freeze(dict(FAST)),
        )
        store.put(key_digest(old_key), solution_to_payload(solution), kind="solve")
        assert solve_key(xmac, requirements, FAST)[2:] == old_key[1:]
        runner = _runner(tmp_path / "store")
        runner.run([_task(xmac, requirements)])
        assert runner.traffic() == (0, 1, 1)

    def test_miss_everywhere(self, tmp_path, xmac, requirements):
        runner = _runner(tmp_path / "store")
        [outcome] = runner.run([_task(xmac, requirements)])
        assert outcome.ok
        assert runner.traffic() == (0, 1, 1)

    def test_cache_without_store_keeps_nothing(self, xmac, requirements):
        runner = BatchRunner(cache=True)
        assert runner.store is None
        runner.run([_task(xmac, requirements)])
        runner.run([_task(xmac, requirements)])
        assert runner.traffic() == (0, 2, 0)


class TestUndecodablePayloads:
    """A well-formed record whose payload has the wrong shape is a warned,
    counted miss for either record kind, never a hit, and the run that
    recomputes it rewrites the record."""

    WRONG_SHAPE = {"shape": "wrong"}

    def test_solve_record(self, tmp_path, xmac, requirements):
        store = ResultStore(tmp_path / "store")
        digest = key_digest(solve_key(xmac, requirements, FAST))
        store.put(digest, self.WRONG_SHAPE, kind="solve")
        runner = BatchRunner(cache=True, store=store)
        with pytest.warns(StoreWarning, match="malformed solve payload"):
            [outcome] = runner.run([_task(xmac, requirements)])
        assert outcome.ok
        assert runner.traffic() == (0, 1, 1)
        assert store.stats().corrupt == 1

        repaired = BatchRunner(cache=True, store=ResultStore(tmp_path / "store"))
        [again] = repaired.run([_task(xmac, requirements)])
        assert again.solution == outcome.solution
        assert repaired.traffic() == (1, 0, 0)

    def test_replication_record(self, tmp_path, xmac):
        store = ResultStore(tmp_path / "store")
        payload = (xmac, xmac.coerce({"wakeup_interval": 0.4}), SimulationConfig(300.0, 3))
        digest = key_digest(REPLICATIONS.key(payload, model_fingerprint))
        store.put(digest, self.WRONG_SHAPE, kind="replication")
        runner = BatchRunner(cache=True, store=store)
        with pytest.warns(StoreWarning, match="malformed replication payload"):
            [measurement] = simulate_replications([payload], runner)
        assert measurement.seed == 3 and measurement.delivered > 0
        assert runner.traffic() == (0, 1, 1)
        assert store.stats().corrupt == 1

        repaired = BatchRunner(cache=True, store=ResultStore(tmp_path / "store"))
        assert simulate_replications([payload], repaired) == [measurement]
        assert repaired.traffic() == (1, 0, 0)
