"""Result identity: when two solves or two replications are the same.

The game and the simulator are deterministic, so a result is a function of
its inputs.  This module names those inputs as a *key*, a nested tuple of
primitives, and folds a key into the SHA-256 digest a result store files
the result under.  Two record kinds share the address space (the key's
leading tag keeps them disjoint):

* :func:`solve_key` — ``("solve", solver_revision, model_fingerprint,
  requirements, solver_options)``, one bargaining-game solve;
* :func:`replication_record_key` — ``("replication", model_fingerprint,
  parameters, horizon, seed)``, one seeded packet-level simulation.

:func:`key_digest` encodes a key canonically — every component is
length-prefixed and type-tagged, floats go through :meth:`float.hex` — so
the digest does not depend on the platform, the Python version, ``repr``
details, or hash randomization.  :func:`batch_fingerprints` lets one batch
fingerprint each model instance once, without changing a digest.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from typing import Any, Callable, Dict, List, Mapping, Tuple

import numpy as np

from repro.core.requirements import ApplicationRequirements
from repro.exceptions import StoreError
from repro.protocols.base import DutyCycledMACModel

__all__ = [
    "SOLVER_REVISION",
    "Key",
    "batch_fingerprints",
    "freeze",
    "key_digest",
    "model_fingerprint",
    "replication_record_key",
    "solve_key",
]

#: A fully resolved, hashable result identity.
Key = Tuple[Any, ...]

#: Revision of the game solver, folded into every :func:`solve_key`.  Bump
#: it with any solver change that alters a solution, so results a store
#: holds from an older solver are never replayed as if a cold run had
#: produced them.  Keys without this component were written by revision 1,
#: the hybrid whose every solve ran an 11-start SLSQP cross-check; revision 2
#: polished the grid's local minima with SLSQP; revision 3 polishes them with
#: NumPy line searches.
SOLVER_REVISION = 3


def freeze(value: Any) -> Any:
    """Convert a value into a deterministic, hashable representation.

    Handles the types that appear in result identities: scalars, strings,
    mappings (order-insensitive), sequences, numpy arrays, dataclasses, and
    plain objects (via their ``__dict__``).

    Args:
        value: The value to freeze.

    Returns:
        A hashable value: scalars pass through; containers become tagged
        tuples; anything unrecognized falls back to its ``repr``.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Mapping):
        return ("map", tuple(sorted((str(k), freeze(v)) for k, v in value.items())))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(freeze(item) for item in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(repr(freeze(item)) for item in value)))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return ("dataclass", type(value).__qualname__, freeze(fields))
    if hasattr(value, "__dict__"):
        return ("object", type(value).__qualname__, freeze(vars(value)))
    return ("repr", repr(value))


def _lazy_attribute_names(cls: type) -> frozenset:
    """Instance attributes that are ``functools.cached_property`` memos.

    The protocol models memoize derived quantities lazily; those memo slots
    appear in ``vars(model)`` only after first use and are functions of the
    defining state, so they must not participate in the identity (a solved
    model must fingerprint identically to a fresh one).
    """
    names = set()
    for klass in type.mro(cls):
        for name, attribute in vars(klass).items():
            if isinstance(attribute, functools.cached_property):
                names.add(name)
    return frozenset(names)


def model_fingerprint(model: DutyCycledMACModel) -> Any:
    """Deterministic identity of a protocol model instance.

    Two model instances of the same class, bound to equal scenarios with
    equal tuning parameters, produce the same fingerprint — which is exactly
    the condition under which their results are interchangeable.

    Args:
        model: The protocol model to fingerprint.

    Returns:
        A hashable tuple of the model's qualified class name, protocol name
        and frozen non-memoized instance state (lazy ``cached_property``
        memos are excluded, so a solved model fingerprints identically to a
        fresh one).
    """
    lazy = _lazy_attribute_names(type(model))
    state = {name: value for name, value in vars(model).items() if name not in lazy}
    return (
        f"{type(model).__module__}.{type(model).__qualname__}",
        model.name,
        freeze(state),
    )


def batch_fingerprints() -> Callable[[DutyCycledMACModel], Any]:
    """A :func:`model_fingerprint` that fingerprints each model instance once.

    The units of a sweep share one model instance, and freezing its whole
    state once per unit cost more than reading the unit's record.  The
    returned function memoizes by instance, for one batch (it holds every
    model it saw), and returns the fingerprint in its canonical encoding,
    which :func:`key_digest` feeds verbatim: a key built with it digests
    exactly as one built with :func:`model_fingerprint`, and two keys built
    with the same one are equal whenever their digests are.
    """
    seen: Dict[int, Tuple[DutyCycledMACModel, _Encoded]] = {}

    def fingerprint(model: DutyCycledMACModel) -> Any:
        entry = seen.get(id(model))
        if entry is None:
            parts: List[bytes] = []
            _encode(model_fingerprint(model), parts)
            entry = seen[id(model)] = (model, _Encoded(b"".join(parts)))
        return entry[1]

    return fingerprint


def solve_key(
    model: DutyCycledMACModel,
    requirements: ApplicationRequirements,
    solver_options: Mapping[str, object],
    fingerprint: Callable[[DutyCycledMACModel], Any] = model_fingerprint,
) -> Key:
    """The full identity of one game solve.

    Args:
        model: Protocol model of the solve.
        requirements: Application requirements of the solve.
        solver_options: Options forwarded to the solver backend.
        fingerprint: How the model is fingerprinted (one batch's
            :func:`batch_fingerprints`, or :func:`model_fingerprint`).

    Returns:
        A hashable key; two solves with equal keys are guaranteed to produce
        bit-identical solutions (the game is deterministic, and the key
        names the :data:`SOLVER_REVISION` that computes it).
    """
    return (
        "solve",
        SOLVER_REVISION,
        fingerprint(model),
        freeze(requirements),
        freeze(dict(solver_options)),
    )


def replication_record_key(
    model: DutyCycledMACModel,
    parameters: Mapping[str, float],
    horizon: float,
    seed: int,
    fingerprint: Callable[[DutyCycledMACModel], Any] = model_fingerprint,
) -> Key:
    """The identity of one seeded simulation replication.

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
        fingerprint: How the model is fingerprinted, as for
            :func:`solve_key`.

    Returns:
        A key for :func:`key_digest`.
    """
    return (
        "replication",
        fingerprint(model),
        freeze(dict(parameters)),
        float(horizon),
        int(seed),
    )


class _Encoded(bytes):
    """A key component already in its canonical encoding (fed verbatim)."""


def _encode(value: Any, out: List[bytes]) -> None:
    """Append one key component's canonical encoding to ``out``.

    Accepts exactly the types :func:`freeze` emits: ``None``, booleans,
    integers, floats, strings, bytes and (nested) tuples, plus a
    pre-encoded :class:`_Encoded` component.  Booleans are checked before
    integers (``bool`` subclasses ``int``), floats go through ``float.hex``
    so equal values always hash equally and unequal values never collide by
    formatting.
    """
    if value is None:
        out.append(b"N;")
    elif value is True:
        out.append(b"T;")
    elif value is False:
        out.append(b"F;")
    elif isinstance(value, int):
        data = str(value).encode("ascii")
        out.append(b"i%d:%s" % (len(data), data))
    elif isinstance(value, float):
        data = value.hex().encode("ascii")
        out.append(b"f%d:%s" % (len(data), data))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"s%d:%s" % (len(data), data))
    elif isinstance(value, _Encoded):
        out.append(value)
    elif isinstance(value, bytes):
        out.append(b"b%d:%s" % (len(value), value))
    elif isinstance(value, tuple):
        out.append(b"(%d:" % len(value))
        for item in value:
            _encode(item, out)
        out.append(b")")
    else:
        raise StoreError(
            f"cannot digest key component of type {type(value).__name__!r}; "
            "keys must be frozen tuples of primitives "
            "(see repro.runtime.keys.freeze)"
        )


def key_digest(key: Key) -> str:
    """SHA-256 hex digest of a key.

    Args:
        key: A key as produced by :func:`solve_key` or
            :func:`replication_record_key` — nested tuples of primitives.

    Returns:
        A 64-character lowercase hex digest; equal keys always digest
        equally, on every platform and Python version.

    Raises:
        StoreError: if the key contains a component the canonical encoding
            does not cover.
    """
    parts: List[bytes] = []
    _encode(key, parts)
    return hashlib.sha256(b"".join(parts)).hexdigest()
