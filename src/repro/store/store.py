"""The disk-backed, content-addressed result store.

Layout (all paths under one root directory)::

    ROOT/
      store.json            # manifest: {"schema": "repro.store", "schema_version": 1}
      records/<dd>/<digest>.json   # one record per result, sharded by digest prefix
      tmp/                  # staging area of in-flight writes

Writes are atomic and idempotent: a record is staged in ``tmp/`` and
published with :func:`os.replace`, so readers never observe a partial file
and two processes racing to store the same key simply last-write an
identical record.  Reads degrade instead of crashing: a record that fails
any integrity check is a *miss* plus a :class:`StoreWarning` — a damaged
store behaves like a cold one, and the run that recomputes a damaged record
rewrites it.  ``verify()`` re-hashes every record and ``gc()`` sweeps
orphaned temp files (optionally corrupt records too).
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.exceptions import StoreError
from repro.store.records import decode_record, encode_record

__all__ = ["GcReport", "ResultStore", "StoreStats", "StoreWarning", "VerifyReport"]

#: Manifest schema tag of a store root.
STORE_SCHEMA = "repro.store"

#: Manifest schema version this code creates and opens.
STORE_SCHEMA_VERSION = 1

_MANIFEST_NAME = "store.json"
_RECORDS_DIR = "records"
_TMP_DIR = "tmp"


class StoreWarning(UserWarning):
    """A store record was unreadable and has been treated as a miss."""


@dataclasses.dataclass(frozen=True)
class StoreStats:
    """One snapshot of a :class:`ResultStore`: traffic counters + contents.

    The counter fields (``hits``/``misses``/``puts``/``corrupt``) are
    per-instance — they start at zero when the store is opened and count
    every lookup of every thread using the instance.  The content fields
    (``records``/``bytes``) describe the store *directory* at snapshot
    time, shared by every process using it.  ``repro store stats`` and the
    service's status and queue endpoints read it; a run's own traffic is
    counted by its runner instead (:meth:`repro.runtime.BatchRunner.traffic`).

    Attributes:
        hits: Lookups answered from disk.
        misses: Lookups that found no (readable) record.
        puts: Records actually written (an existing record is kept, not
            rewritten, unless it could not be read).
        corrupt: Records that failed an integrity check on the read path.
        records: Record files currently on disk.
        bytes: Total size of those record files in bytes.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0
    records: int = 0
    bytes: int = 0

    def as_dict(self) -> Dict[str, object]:
        """Flat summary used by reports."""
        return {
            "store_hits": self.hits,
            "store_misses": self.misses,
            "store_puts": self.puts,
            "store_corrupt": self.corrupt,
            "store_records": self.records,
            "store_bytes": self.bytes,
        }


@dataclasses.dataclass(frozen=True)
class VerifyReport:
    """Outcome of :meth:`ResultStore.verify`.

    Attributes:
        checked: Number of record files examined.
        corrupt: ``(digest, reason)`` of every record that failed a check.
    """

    checked: int
    corrupt: Tuple[Tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        """Whether every record verified cleanly."""
        return not self.corrupt


@dataclasses.dataclass(frozen=True)
class GcReport:
    """Outcome of :meth:`ResultStore.gc`.

    Attributes:
        tmp_removed: Orphaned staging files removed from ``tmp/``.
        corrupt_removed: Corrupt record files removed (only when requested).
    """

    tmp_removed: int
    corrupt_removed: int = 0


class ResultStore:
    """Disk-backed, content-addressed store of solve/replication results.

    Args:
        root: Store directory.  With ``create=True`` (the default) a
            missing or empty directory is initialized; an existing store is
            opened and its manifest version-checked either way.
        create: Whether a missing store may be initialized.  Maintenance
            commands pass ``False`` so a typo'd path errors instead of
            silently materializing an empty store.

    Raises:
        StoreError: if the directory exists but is not a result store, if
            its manifest carries an incompatible schema version, or if
            ``create=False`` and there is no store at ``root``.
    """

    def __init__(self, root: Union[str, Path], create: bool = True) -> None:
        self._root = Path(root)
        self._records = self._root / _RECORDS_DIR
        self._tmp = self._root / _TMP_DIR
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._corrupt = 0
        self._open(create)

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #

    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    def _manifest_path(self) -> Path:
        return self._root / _MANIFEST_NAME

    def _record_path(self, digest: str) -> Path:
        return self._records / digest[:2] / f"{digest}.json"

    def _open(self, create: bool) -> None:
        manifest = self._manifest_path()
        if manifest.exists():
            self._check_manifest(manifest)
        else:
            if self._root.exists() and any(self._root.iterdir()):
                raise StoreError(
                    f"{self._root} exists but is not a result store "
                    f"(no {_MANIFEST_NAME} manifest)"
                )
            if not create:
                raise StoreError(f"no result store at {self._root}")
            self._root.mkdir(parents=True, exist_ok=True)
            manifest.write_text(
                '{\n  "schema": "%s",\n  "schema_version": %d\n}\n'
                % (STORE_SCHEMA, STORE_SCHEMA_VERSION),
                encoding="utf-8",
            )
        self._records.mkdir(parents=True, exist_ok=True)
        self._tmp.mkdir(parents=True, exist_ok=True)

    def _check_manifest(self, manifest: Path) -> None:
        import json

        try:
            payload = json.loads(manifest.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise StoreError(f"unreadable store manifest {manifest}: {error}") from error
        if not isinstance(payload, dict) or payload.get("schema") != STORE_SCHEMA:
            raise StoreError(f"{self._root} is not a result store")
        version = payload.get("schema_version")
        if version != STORE_SCHEMA_VERSION:
            raise StoreError(
                f"store {self._root} has schema version {version!r}; "
                f"this code opens version {STORE_SCHEMA_VERSION}"
            )

    # ------------------------------------------------------------------ #
    # Core get/put
    # ------------------------------------------------------------------ #

    def get(
        self, digest: str, decode: Optional[Callable[[Dict[str, Any]], Any]] = None
    ) -> Any:
        """The result stored under ``digest``, or ``None``.

        Args:
            digest: The record's key digest.
            decode: Turns the verified payload into the caller's result
                (raising :class:`~repro.exceptions.StoreError` on a payload
                of the wrong shape); without it the payload is returned.

        A record that exists but fails any integrity check, or whose payload
        ``decode`` rejects, is counted as corrupt, reported via
        :class:`StoreWarning`, and treated as a miss — the caller recomputes,
        never crashes, and the runner's fan-out rewrites the record
        (``put(..., replace=True)``); ``gc --drop-corrupt`` removes a record
        that fails its integrity check.
        """
        path = self._record_path(digest)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            with self._lock:
                self._misses += 1
            return None
        try:
            _, payload = decode_record(text, expected_digest=digest)
            result = payload if decode is None else decode(payload)
        except StoreError as error:
            with self._lock:
                self._corrupt += 1
                self._misses += 1
            warnings.warn(
                f"ignoring corrupt store record {path.name}: {error}", StoreWarning
            )
            return None
        with self._lock:
            self._hits += 1
        return result

    def put(
        self, digest: str, payload: Mapping[str, Any], kind: str, replace: bool = False
    ) -> bool:
        """Store ``payload`` under ``digest`` atomically.

        Existing records are left untouched unless ``replace`` is set
        (content-addressing guarantees an existing record for the same key
        holds the same result), so puts are idempotent and concurrent
        writers cannot interleave partial files: each stages its own temp
        file and publishes it with an atomic rename.

        Args:
            digest: The record's key digest (see :mod:`repro.runtime.keys`).
            payload: JSON-ready result payload.
            kind: Record family, one of
                :data:`repro.store.records.RECORD_KINDS`.
            replace: Overwrite an existing record; the fan-out sets it for
                a record :meth:`get` could not read, which is thereby
                repaired.

        Returns:
            ``True`` if a record was written, ``False`` if one already
            existed and was kept.
        """
        path = self._record_path(digest)
        if not replace and path.exists():
            return False
        text = encode_record(digest, kind, payload)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, staging = tempfile.mkstemp(
            prefix=f"{digest[:12]}.", suffix=".tmp", dir=self._tmp
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(text)
            os.replace(staging, path)
        except BaseException:
            try:
                os.unlink(staging)
            except OSError:
                pass
            raise
        with self._lock:
            self._puts += 1
        return True

    def contains(self, digest: str) -> bool:
        """Whether a record file exists under ``digest`` (no integrity check)."""
        return self._record_path(digest).exists()

    __contains__ = contains

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def digests(self) -> Iterator[str]:
        """All record digests in the store, in sorted order."""
        if not self._records.exists():
            return
        for shard in sorted(self._records.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                yield path.stem

    def record_count(self) -> int:
        """Number of record files in the store."""
        return sum(1 for _ in self.digests())

    def _disk_usage(self) -> Tuple[int, int]:
        """``(records, bytes)`` currently on disk (other writers included)."""
        records = 0
        size = 0
        if self._records.exists():
            for shard in self._records.iterdir():
                if not shard.is_dir():
                    continue
                for path in shard.glob("*.json"):
                    try:
                        size += path.stat().st_size
                    except OSError:
                        continue  # racing gc/merge: count only what's readable
                    records += 1
        return records, size

    def record_text(self, digest: str) -> Optional[str]:
        """The raw canonical file text of one record, or ``None``."""
        try:
            return self._record_path(digest).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def stats(self) -> StoreStats:
        """Snapshot of the instance counters plus the on-disk contents."""
        records, size = self._disk_usage()
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                corrupt=self._corrupt,
                records=records,
                bytes=size,
            )

    def counts_by_kind(self) -> Dict[str, int]:
        """Number of readable records per kind (corrupt records excluded)."""
        counts: Dict[str, int] = {}
        for digest in self.digests():
            text = self.record_text(digest)
            if text is None:
                continue
            try:
                kind, _ = decode_record(text, expected_digest=digest)
            except StoreError:
                continue
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def verify(self) -> VerifyReport:
        """Re-hash every record and report the ones that fail.

        Returns:
            A :class:`VerifyReport`; ``report.ok`` is true when every
            record parsed, matched its filed digest, and passed the payload
            integrity hash.
        """
        corrupt: List[Tuple[str, str]] = []
        checked = 0
        for digest in self.digests():
            checked += 1
            text = self.record_text(digest)
            if text is None:
                corrupt.append((digest, "record disappeared during verify"))
                continue
            try:
                decode_record(text, expected_digest=digest)
            except StoreError as error:
                corrupt.append((digest, str(error)))
        return VerifyReport(checked=checked, corrupt=tuple(corrupt))

    def gc(self, drop_corrupt: bool = False) -> GcReport:
        """Sweep staging leftovers (and, optionally, corrupt records).

        Args:
            drop_corrupt: Also delete record files that fail verification,
                so the next run re-solves and rewrites them cleanly.

        Returns:
            A :class:`GcReport` with removal counts.
        """
        tmp_removed = 0
        if self._tmp.exists():
            for leftover in sorted(self._tmp.iterdir()):
                if leftover.is_file():
                    leftover.unlink()
                    tmp_removed += 1
        corrupt_removed = 0
        if drop_corrupt:
            for digest, _ in self.verify().corrupt:
                path = self._record_path(digest)
                if path.exists():
                    path.unlink()
                    corrupt_removed += 1
        return GcReport(tmp_removed=tmp_removed, corrupt_removed=corrupt_removed)
