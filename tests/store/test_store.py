"""ResultStore: layout, atomic puts, corruption policy, maintenance."""

from __future__ import annotations

import json
import threading
import warnings

import pytest

from repro.exceptions import StoreError
from repro.store import (
    RECORD_SCHEMA,
    ResultStore,
    StoreWarning,
    key_digest,
    payload_sha256,
)

PAYLOAD = {"seed": 1, "energy": 0.25, "delay": None, "delivery_ratio": 1.0,
           "generated": 4, "delivered": 4, "dropped": 0}


def digest_of(*parts):
    return key_digest(tuple(parts))


class TestLayout:
    def test_initializes_manifest_and_dirs(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root)
        manifest = json.loads((root / "store.json").read_text())
        assert manifest == {"schema": "repro.store", "schema_version": 1}
        assert (root / "records").is_dir()
        assert (root / "tmp").is_dir()

    def test_reopens_existing_store(self, tmp_path):
        first = ResultStore(tmp_path / "store")
        digest = digest_of("replication", "x")
        first.put(digest, PAYLOAD, kind="replication")
        second = ResultStore(tmp_path / "store")
        assert second.get(digest) == PAYLOAD

    def test_refuses_foreign_directory(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        with pytest.raises(StoreError, match="not a result store"):
            ResultStore(tmp_path)

    def test_create_false_requires_existing_store(self, tmp_path):
        with pytest.raises(StoreError, match="no result store"):
            ResultStore(tmp_path / "missing", create=False)

    def test_rejects_future_schema_version(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "store.json").write_text(
            json.dumps({"schema": "repro.store", "schema_version": 99})
        )
        with pytest.raises(StoreError, match="schema version"):
            ResultStore(root)

    def test_records_sharded_by_digest_prefix(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        digest = digest_of("replication", "shard-me")
        store.put(digest, PAYLOAD, kind="replication")
        assert (tmp_path / "store" / "records" / digest[:2] / f"{digest}.json").exists()


class TestGetPut:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        digest = digest_of("replication", "a")
        assert store.get(digest) is None
        assert store.put(digest, PAYLOAD, kind="replication") is True
        assert store.get(digest) == PAYLOAD
        assert digest in store

    def test_put_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        digest = digest_of("replication", "a")
        assert store.put(digest, PAYLOAD, kind="replication") is True
        assert store.put(digest, dict(PAYLOAD, energy=9.9), kind="replication") is False
        assert store.get(digest) == PAYLOAD  # first write wins, never rewritten
        assert store.stats().puts == 1

    def test_rejects_unknown_kind(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(StoreError, match="unknown record kind"):
            store.put(digest_of("x"), PAYLOAD, kind="mystery")

    def test_no_staging_leftovers_after_puts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for index in range(5):
            store.put(digest_of("replication", index), PAYLOAD, kind="replication")
        assert list((tmp_path / "store" / "tmp").iterdir()) == []

    def test_unserializable_payload_leaves_no_record(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        digest = digest_of("replication", "bad")
        with pytest.raises(StoreError):
            store.put(digest, {"value": object()}, kind="replication")
        assert store.get(digest) is None  # miss, not a partial file
        assert store.verify().ok

    def test_stats_count_this_instance_only(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        digest = digest_of("replication", "a")
        store.get(digest)
        store.put(digest, PAYLOAD, kind="replication")
        store.get(digest)
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)
        assert ResultStore(tmp_path / "store").stats().puts == 0

    def test_stats_report_disk_records_and_bytes(self, tmp_path):
        # records/bytes describe the directory, so every instance — and
        # the service's progress endpoint — sees the same numbers.
        store = ResultStore(tmp_path / "store")
        assert (store.stats().records, store.stats().bytes) == (0, 0)
        for index in range(3):
            store.put(digest_of("replication", index), PAYLOAD, kind="replication")
        stats = store.stats()
        assert stats.records == 3
        expected = sum(
            path.stat().st_size
            for path in (tmp_path / "store" / "records").rglob("*.json")
        )
        assert stats.bytes == expected
        other = ResultStore(tmp_path / "store").stats()
        assert (other.records, other.bytes) == (3, expected)
        assert other.as_dict()["store_records"] == 3
        assert other.as_dict()["store_bytes"] == expected


class TestCorruption:
    def _stored(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        digest = digest_of("replication", "victim")
        store.put(digest, PAYLOAD, kind="replication")
        return store, digest, store._record_path(digest)

    def test_truncated_record_is_a_miss_with_warning(self, tmp_path):
        store, digest, path = self._stored(tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.warns(StoreWarning, match="corrupt"):
            assert store.get(digest) is None
        assert store.stats().corrupt == 1

    def test_replace_rewrites_a_corrupt_record(self, tmp_path):
        store, digest, path = self._stored(tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert not store.put(digest, PAYLOAD, kind="replication")
        assert store.put(digest, PAYLOAD, kind="replication", replace=True)
        assert store.get(digest) == PAYLOAD
        assert store.verify().ok

    def test_tampered_payload_fails_integrity(self, tmp_path):
        store, digest, path = self._stored(tmp_path)
        record = json.loads(path.read_text())
        record["payload"]["energy"] = 123.0  # hash no longer matches
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        with pytest.warns(StoreWarning, match="integrity"):
            assert store.get(digest) is None

    def test_record_filed_under_wrong_key(self, tmp_path):
        store, digest, path = self._stored(tmp_path)
        other = digest_of("replication", "other")
        wrong_home = store._record_path(other)
        wrong_home.parent.mkdir(parents=True, exist_ok=True)
        wrong_home.write_text(path.read_text())
        with pytest.warns(StoreWarning, match="claims key"):
            assert store.get(other) is None

    def test_internally_consistent_rewrite_is_accepted(self, tmp_path):
        # The integrity hash is an anti-corruption check, not an
        # anti-tamper seal: a rewrite that also refreshes payload_sha256
        # reads back fine.  (Cross-machine disagreement is what
        # merge_stores' byte-compare catches.)
        store, digest, path = self._stored(tmp_path)
        record = json.loads(path.read_text())
        record["payload"]["energy"] = 123.0
        record["payload_sha256"] = payload_sha256(record["payload"])
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        assert store.get(digest) == record["payload"]

    def test_verify_reports_corrupt_records(self, tmp_path):
        store, digest, path = self._stored(tmp_path)
        clean = digest_of("replication", "clean")
        store.put(clean, PAYLOAD, kind="replication")
        path.write_text("{ not json")
        report = store.verify()
        assert not report.ok
        assert report.checked == 2
        assert [entry[0] for entry in report.corrupt] == [digest]

    def test_gc_drops_corrupt_and_tmp(self, tmp_path):
        store, digest, path = self._stored(tmp_path)
        (tmp_path / "store" / "tmp" / "orphan.tmp").write_text("partial")
        path.write_text("{ not json")
        report = store.gc(drop_corrupt=True)
        assert (report.tmp_removed, report.corrupt_removed) == (1, 1)
        assert store.record_count() == 0
        assert store.verify().ok

    def test_gc_keeps_corrupt_by_default(self, tmp_path):
        store, digest, path = self._stored(tmp_path)
        path.write_text("{ not json")
        assert store.gc().corrupt_removed == 0
        assert store.record_count() == 1


class TestConcurrency:
    def test_racing_writers_to_same_key(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        digest = digest_of("replication", "contested")
        barrier = threading.Barrier(8)
        errors = []

        def writer():
            barrier.wait()
            try:
                store.put(digest, PAYLOAD, kind="replication")
            except Exception as error:  # noqa: BLE001 - the test asserts none occur
                errors.append(error)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.get(digest) == PAYLOAD
        assert store.record_count() == 1
        assert store.verify().ok
        assert list((tmp_path / "store" / "tmp").iterdir()) == []

    def test_two_handles_one_directory(self, tmp_path):
        left = ResultStore(tmp_path / "store")
        right = ResultStore(tmp_path / "store")
        digest = digest_of("replication", "shared")
        assert left.put(digest, PAYLOAD, kind="replication") is True
        assert right.put(digest, PAYLOAD, kind="replication") is False
        assert right.get(digest) == PAYLOAD


class TestIntrospection:
    def test_digests_sorted(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        digests = [digest_of("replication", index) for index in range(6)]
        for digest in digests:
            store.put(digest, PAYLOAD, kind="replication")
        assert list(store.digests()) == sorted(digests)

    def test_counts_by_kind(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(digest_of("replication", 1), PAYLOAD, kind="replication")
        store.put(digest_of("replication", 2), PAYLOAD, kind="replication")
        assert store.counts_by_kind() == {"replication": 2}

    def test_record_text_is_canonical(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        digest = digest_of("replication", "canon")
        store.put(digest, PAYLOAD, kind="replication")
        text = store.record_text(digest)
        record = json.loads(text)
        assert record["schema"] == RECORD_SCHEMA
        assert text == json.dumps(record, indent=2, sort_keys=True) + "\n"
