"""SolveCache × ResultStore: read-through, write-behind, promotion."""

from __future__ import annotations

from repro.core.tradeoff import EnergyDelayGame
from repro.runtime.cache import SolveCache, freeze, model_fingerprint, solve_key
from repro.store import ResultStore, key_digest

FAST = {"grid_points_per_dimension": 15}


class TestReadThroughWriteBehind:
    def test_put_writes_behind_to_disk(self, tmp_path, xmac, requirements):
        store = ResultStore(tmp_path / "store")
        cache = SolveCache(store=store)
        key = solve_key(xmac, requirements, FAST)
        solution = EnergyDelayGame(xmac, requirements, **FAST).solve()
        cache.put(key, solution)
        assert store.stats().puts == 1
        assert key_digest(key) in store

    def test_fresh_cache_reads_through(self, tmp_path, xmac, requirements):
        store = ResultStore(tmp_path / "store")
        key = solve_key(xmac, requirements, FAST)
        solution = EnergyDelayGame(xmac, requirements, **FAST).solve()
        SolveCache(store=store).put(key, solution)

        # A new cache instance (new process, same store directory) answers
        # from disk; the store lookup counts as a cache hit.
        cold = SolveCache(store=ResultStore(tmp_path / "store"))
        recovered = cold.get(key)
        assert recovered == solution
        assert cold.stats().hits == 1

    def test_store_hit_promotes_to_memory(self, tmp_path, xmac, requirements):
        store = ResultStore(tmp_path / "store")
        key = solve_key(xmac, requirements, FAST)
        SolveCache(store=store).put(key, EnergyDelayGame(xmac, requirements, **FAST).solve())

        warm_store = ResultStore(tmp_path / "store")
        cache = SolveCache(store=warm_store)
        cache.get(key)
        cache.get(key)
        # Second get is answered from memory: only one disk lookup happened.
        assert warm_store.stats().hits == 1
        assert cache.stats().hits == 2

    def test_memory_hit_does_not_rewrite_store(self, tmp_path, xmac, requirements):
        store = ResultStore(tmp_path / "store")
        cache = SolveCache(store=store)
        key = solve_key(xmac, requirements, FAST)
        solution = EnergyDelayGame(xmac, requirements, **FAST).solve()
        cache.put(key, solution)
        cache.get(key)
        cache.get(key)
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
        store.put_solution(old_key, solution)
        assert solve_key(xmac, requirements, FAST)[2:] == old_key[1:]
        cache = SolveCache(store=ResultStore(tmp_path / "store"))
        assert cache.get(solve_key(xmac, requirements, FAST)) is None
        assert cache.stats().misses == 1

    def test_miss_everywhere(self, tmp_path, xmac, requirements):
        cache = SolveCache(store=ResultStore(tmp_path / "store"))
        assert cache.get(solve_key(xmac, requirements, FAST)) is None
        assert cache.stats().misses == 1

    def test_cache_without_store_unchanged(self, xmac, requirements):
        cache = SolveCache()
        assert cache.store is None
        key = solve_key(xmac, requirements, FAST)
        cache.put(key, EnergyDelayGame(xmac, requirements, **FAST).solve())
        assert cache.get(key) is not None
