"""Result identity: freezing, fingerprints, solve and replication keys, digests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.requirements import ApplicationRequirements
from repro.core.tradeoff import EnergyDelayGame
from repro.exceptions import StoreError
from repro.protocols.registry import create_protocol
from repro.protocols.xmac import XMACModel
from repro.runtime import keys
from repro.runtime.keys import (
    SOLVER_REVISION,
    batch_fingerprints,
    freeze,
    key_digest,
    model_fingerprint,
    replication_record_key,
    solve_key,
)

FAST = {"grid_points_per_dimension": 15}
HEX_CHARS = set("0123456789abcdef")


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


class TestKeyDigest:
    def test_is_64_hex_chars(self):
        digest = key_digest(("solve", "abc", 1.5))
        assert len(digest) == 64
        assert set(digest) <= HEX_CHARS

    def test_deterministic(self):
        key = ("solve", "fp", freeze({"max_delay": 2.0}), freeze({"grid": 15}))
        assert key_digest(key) == key_digest(key)

    def test_nested_tuples_participate(self):
        assert key_digest((("a", "b"), "c")) != key_digest((("a",), "b", "c"))
        assert key_digest(("a", ("b", "c"))) != key_digest((("a", "b"), "c"))

    def test_type_tags_keep_lookalikes_apart(self):
        # The canonical encoding is type-tagged and length-prefixed, so
        # values with identical string renderings cannot collide.
        lookalikes = [(1,), (1.0,), ("1",), (b"1",), (True,), ((1,),)]
        digests = {key_digest(key) for key in lookalikes}
        assert len(digests) == len(lookalikes)

    def test_none_and_booleans(self):
        assert key_digest((None,)) != key_digest((False,))
        assert key_digest((True,)) != key_digest((False,))

    def test_float_precision_is_exact(self):
        assert key_digest((0.1,)) != key_digest((0.1 + 1e-16,)) or (0.1 == 0.1 + 1e-16)
        assert key_digest((0.5,)) != key_digest((0.5000000001,))

    def test_rejects_unfrozen_components(self):
        with pytest.raises(StoreError):
            key_digest(("solve", {"not": "frozen"}))
        with pytest.raises(StoreError):
            key_digest(("solve", [1, 2]))

    def test_encoding_is_pinned(self):
        # Records on disk are filed under these digests: the encoding of
        # every component type must never change.
        key = ("solve", 3, (None, True, False, 1, -2, 0.1, "s\u00e9", b"b"), ())
        assert key_digest(key) == (
            "1947120b7c6c7f8b8a37f14a7b164f10c85d0e48346f32eda3a6bc081174fda9"
        )

    def test_solve_key_digests(self, xmac, requirements):
        # A solve key is directly digestible — the property the store's
        # read-through/write-behind depends on.
        key = solve_key(xmac, requirements, {"grid_points_per_dimension": 15})
        assert key_digest(key) == key_digest(
            solve_key(xmac, requirements, {"grid_points_per_dimension": 15})
        )


class TestReplicationRecordKey:
    def test_shape_and_tag(self, xmac):
        key = replication_record_key(xmac, {"wakeup_interval": 0.3}, 300.0, 7)
        assert key[0] == "replication"
        assert key[1] == model_fingerprint(xmac)
        assert key[3] == 300.0
        assert key[4] == 7

    def test_distinct_per_component(self, xmac, paper_scenario):
        base = replication_record_key(xmac, {"wakeup_interval": 0.3}, 300.0, 7)
        variants = [
            replication_record_key(xmac, {"wakeup_interval": 0.31}, 300.0, 7),
            replication_record_key(xmac, {"wakeup_interval": 0.3}, 600.0, 7),
            replication_record_key(xmac, {"wakeup_interval": 0.3}, 300.0, 8),
            replication_record_key(
                XMACModel(paper_scenario), {"wakeup_interval": 0.3}, 300.0, 7
            ),
        ]
        digests = {key_digest(variant) for variant in variants}
        assert len(digests) == len(variants)
        assert key_digest(base) not in digests

    def test_disjoint_from_solve_family(self, xmac, requirements):
        solve = key_digest(solve_key(xmac, requirements, {}))
        replication = key_digest(
            replication_record_key(xmac, {"wakeup_interval": 0.3}, 300.0, 1)
        )
        assert solve != replication

    def test_int_like_seed_normalized(self, xmac):
        params = {"wakeup_interval": 0.3}
        assert key_digest(
            replication_record_key(xmac, params, 300.0, np.int64(7))
        ) == key_digest(replication_record_key(xmac, params, 300.0, 7))


class TestBatchFingerprints:
    def test_keys_digest_as_unmemoized_ones(self, xmac, requirements):
        fingerprint = batch_fingerprints()
        assert key_digest(solve_key(xmac, requirements, FAST, fingerprint)) == key_digest(
            solve_key(xmac, requirements, FAST)
        )
        params = {"wakeup_interval": 0.3}
        assert key_digest(
            replication_record_key(xmac, params, 300.0, 7, fingerprint)
        ) == key_digest(replication_record_key(xmac, params, 300.0, 7))

    def test_each_model_instance_is_fingerprinted_once(self, monkeypatch, small_scenario):
        calls = []
        monkeypatch.setattr(
            keys, "model_fingerprint", lambda model: calls.append(model) or ("fp", model.name)
        )
        first, second = XMACModel(small_scenario), XMACModel(small_scenario)
        fingerprint = batch_fingerprints()
        assert fingerprint(first) is fingerprint(first)
        assert fingerprint(second) == fingerprint(first)
        assert calls == [first, second]

    def test_keys_compare_as_their_digests(self, xmac, requirements, paper_scenario):
        fingerprint = batch_fingerprints()
        a = solve_key(xmac, requirements, FAST, fingerprint)
        twin = solve_key(XMACModel(xmac.scenario), requirements, FAST, fingerprint)
        other = solve_key(XMACModel(paper_scenario), requirements, FAST, fingerprint)
        assert a == twin and key_digest(a) == key_digest(twin)
        assert a != other and key_digest(a) != key_digest(other)
