"""Persistent, content-addressed result store.

The only cache that outlives a run: the runtime's memoized fan-out
(:meth:`repro.runtime.BatchRunner.fan_out`) files game solutions and
simulation replications under SHA-256 digests of their identities
(:mod:`repro.runtime.keys`), so a warm store answers repeat work in O(read)
across processes, machines and CI runs.  Shards merge byte-identically
(:func:`merge_stores`), interrupted campaigns resume incrementally, and
corruption degrades to a miss instead of a crash.

See ``docs/store.md`` for the on-disk layout and the CI caching recipe.
"""

from repro.runtime.keys import key_digest, replication_record_key
from repro.store.codec import solution_from_payload, solution_to_payload
from repro.store.merge import MergeReport, merge_stores
from repro.store.records import (
    RECORD_KINDS,
    RECORD_SCHEMA,
    RECORD_SCHEMA_VERSION,
    decode_record,
    encode_record,
    payload_sha256,
)
from repro.store.store import (
    GcReport,
    ResultStore,
    StoreStats,
    StoreWarning,
    VerifyReport,
)

__all__ = [
    "GcReport",
    "MergeReport",
    "RECORD_KINDS",
    "RECORD_SCHEMA",
    "RECORD_SCHEMA_VERSION",
    "ResultStore",
    "StoreStats",
    "StoreWarning",
    "VerifyReport",
    "decode_record",
    "encode_record",
    "key_digest",
    "merge_stores",
    "payload_sha256",
    "replication_record_key",
    "solution_from_payload",
    "solution_to_payload",
]
