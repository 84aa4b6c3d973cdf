"""Tests for the solve cache: keys, stats, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.requirements import ApplicationRequirements
from repro.core.tradeoff import EnergyDelayGame
from repro.protocols.registry import create_protocol
from repro.protocols.xmac import XMACModel
from repro.runtime.cache import (
    SOLVER_REVISION,
    SolveCache,
    default_cache,
    freeze,
    model_fingerprint,
    solve_key,
)

FAST = {"grid_points_per_dimension": 15}


class TestFreeze:
    def test_scalars_pass_through(self):
        assert freeze(3) == 3
        assert freeze("x") == "x"
        assert freeze(None) is None

    def test_mappings_are_order_insensitive(self):
        assert freeze({"a": 1, "b": 2}) == freeze({"b": 2, "a": 1})

    def test_sequences_keep_order(self):
        assert freeze([1, 2]) != freeze([2, 1])

    def test_numpy_arrays_by_content(self):
        assert freeze(np.arange(4.0)) == freeze(np.arange(4.0))
        assert freeze(np.arange(4.0)) != freeze(np.arange(4.0) + 1)

    def test_result_is_hashable(self):
        key = freeze({"a": [1, {"b": np.ones(2)}]})
        assert hash(key) is not None


class TestModelFingerprint:
    def test_equal_models_share_fingerprint(self, small_scenario):
        assert model_fingerprint(XMACModel(small_scenario)) == model_fingerprint(
            XMACModel(small_scenario)
        )

    def test_different_scenarios_differ(self, small_scenario, paper_scenario):
        assert model_fingerprint(XMACModel(small_scenario)) != model_fingerprint(
            XMACModel(paper_scenario)
        )

    @pytest.mark.parametrize("protocol", ["xmac", "dmac", "lmac", "scpmac"])
    def test_solving_does_not_change_fingerprint(self, small_scenario, protocol):
        # Solving fills the model's lazy memos (e.g. the per-ring traffic
        # table); none of them may enter the identity.
        model = create_protocol(protocol, small_scenario)
        before = model_fingerprint(model)
        requirements = ApplicationRequirements(energy_budget=0.06, max_delay=3.0)
        EnergyDelayGame(model, requirements, **FAST).solve()
        assert "traffic_by_ring" in vars(model)
        assert model_fingerprint(model) == before


class TestSolveKey:
    def test_key_depends_on_requirements(self, xmac):
        loose = ApplicationRequirements(energy_budget=0.06, max_delay=6.0)
        tight = loose.with_max_delay(1.0)
        assert solve_key(xmac, loose, {}) != solve_key(xmac, tight, {})

    def test_key_depends_on_solver_options(self, xmac, requirements):
        assert solve_key(xmac, requirements, {"grid_points_per_dimension": 10}) != solve_key(
            xmac, requirements, {"grid_points_per_dimension": 20}
        )

    def test_option_order_is_irrelevant(self, xmac, requirements):
        a = solve_key(xmac, requirements, {"x": 1, "y": 2})
        b = solve_key(xmac, requirements, {"y": 2, "x": 1})
        assert a == b

    def test_key_names_the_solver_revision(self, xmac, requirements):
        key = solve_key(xmac, requirements, {})
        assert key[:3] == ("solve", SOLVER_REVISION, model_fingerprint(xmac))


class TestSolveCache:
    def test_miss_then_hit(self, xmac, requirements):
        cache = SolveCache()
        key = solve_key(xmac, requirements, FAST)
        assert cache.get(key) is None
        solution = EnergyDelayGame(xmac, requirements, **FAST).solve()
        cache.put(key, solution)
        assert cache.get(key) is solution
        stats = cache.stats()
        assert (stats.hits, stats.misses, len(cache)) == (1, 1, 1)

    def test_cache_hit_returns_identical_contents(self, xmac, requirements):
        cache = SolveCache()
        key = solve_key(xmac, requirements, FAST)
        cache.put(key, EnergyDelayGame(xmac, requirements, **FAST).solve())
        first = cache.get(key)
        second = cache.get(key)
        assert first.as_dict() == second.as_dict()
        assert first.as_dict() == EnergyDelayGame(xmac, requirements, **FAST).solve().as_dict()

    def test_default_cache_is_a_singleton(self):
        assert default_cache() is default_cache()

    def test_empty_stats(self):
        stats = SolveCache().stats()
        assert (stats.hits, stats.misses) == (0, 0)
