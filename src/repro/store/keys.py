"""Canonical content-addressing of result-store records.

The in-memory :class:`~repro.runtime.cache.SolveCache` keys a solve by a
nested tuple of primitives (see :func:`repro.runtime.cache.solve_key`); the
disk store needs the *same identity* as a stable string.  :func:`key_digest`
folds a frozen key into a SHA-256 hex digest through a canonical byte
encoding — every component is length-prefixed and type-tagged, floats are
encoded via :meth:`float.hex` — so the digest does not depend on the
platform, the Python version, ``repr`` details, or hash randomization.

Two record families share the address space (the key's leading tag keeps
them disjoint):

* ``("solve", solver_revision, model_fingerprint, requirements,
  solver_options)`` — one bargaining-game solve, exactly the
  :class:`SolveCache` key;
* ``("replication", model_fingerprint, parameters, horizon, seed)`` — one
  seeded simulation replication of a campaign cell
  (:func:`replication_record_key`).
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping

from repro.exceptions import StoreError
from repro.runtime.cache import CacheKey, freeze, model_fingerprint

__all__ = ["key_digest", "replication_record_key"]


def _feed(hasher: "hashlib._Hash", value: Any) -> None:
    """Fold one frozen-key component into the hash, canonically.

    Accepts exactly the types :func:`~repro.runtime.cache.freeze` emits:
    ``None``, booleans, integers, floats, strings, bytes and (nested)
    tuples.  Booleans are checked before integers (``bool`` subclasses
    ``int``), floats go through ``float.hex`` so equal values always hash
    equally and unequal values never collide by formatting.
    """
    if value is None:
        hasher.update(b"N;")
    elif value is True:
        hasher.update(b"T;")
    elif value is False:
        hasher.update(b"F;")
    elif isinstance(value, int):
        data = str(value).encode("ascii")
        hasher.update(b"i%d:" % len(data))
        hasher.update(data)
    elif isinstance(value, float):
        data = value.hex().encode("ascii")
        hasher.update(b"f%d:" % len(data))
        hasher.update(data)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        hasher.update(b"s%d:" % len(data))
        hasher.update(data)
    elif isinstance(value, bytes):
        hasher.update(b"b%d:" % len(value))
        hasher.update(value)
    elif isinstance(value, tuple):
        hasher.update(b"(%d:" % len(value))
        for item in value:
            _feed(hasher, item)
        hasher.update(b")")
    else:
        raise StoreError(
            f"cannot digest key component of type {type(value).__name__!r}; "
            "store keys must be frozen tuples of primitives "
            "(see repro.runtime.cache.freeze)"
        )


def key_digest(key: CacheKey) -> str:
    """SHA-256 hex digest of a frozen cache key.

    Args:
        key: A key as produced by :func:`repro.runtime.cache.solve_key` or
            :func:`replication_record_key` — nested tuples of primitives.

    Returns:
        A 64-character lowercase hex digest; equal keys always digest
        equally, on every platform and Python version.

    Raises:
        StoreError: if the key contains a component the canonical encoding
            does not cover.
    """
    hasher = hashlib.sha256()
    _feed(hasher, key)
    return hasher.hexdigest()


def replication_record_key(
    model: Any,
    parameters: Mapping[str, float],
    horizon: float,
    seed: int,
) -> CacheKey:
    """The store identity of one seeded simulation replication.

    Everything that determines the replication's measurements participates:
    the model fingerprint (class, scenario, tuning), the exact parameter
    vector the simulator runs at, the simulated horizon and the seed.
    Campaign-level aggregation settings (confidence, tolerances) do *not* —
    they only shape how measurements are folded, so stored replications are
    reusable across tolerance changes.

    Args:
        model: The protocol model the replication simulates.
        parameters: The (coerced) parameter vector of the run.
        horizon: Simulated duration in seconds.
        seed: The replication's simulation seed.

    Returns:
        A frozen key for :func:`key_digest`.
    """
    return (
        "replication",
        model_fingerprint(model),
        freeze(dict(parameters)),
        float(horizon),
        int(seed),
    )
