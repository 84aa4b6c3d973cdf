"""Memoization of game solutions.

A requirement sweep re-solves the same :class:`~repro.core.tradeoff.EnergyDelayGame`
for many nearby configurations, and higher layers (the figure and suite
spec kinds, grid searches, the CLI) routinely repeat solves with identical
inputs.  The game is deterministic — same protocol model, requirements and
solver options give bit-identical solutions — so those repeats are pure
waste.

:class:`SolveCache` memoizes solutions keyed by the full solve identity:
protocol model fingerprint (class, scenario and tuning parameters),
application requirements, and solver options.  Hit/miss statistics are kept
so reports can surface how much work the cache saved.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.requirements import ApplicationRequirements
from repro.core.results import GameSolution
from repro.protocols.base import DutyCycledMACModel

#: A fully resolved, hashable cache key.
CacheKey = Tuple[Any, ...]

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

    Handles the types that appear in solve identities: scalars, strings,
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
    the condition under which their solves are interchangeable.

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


def solve_key(
    model: DutyCycledMACModel,
    requirements: ApplicationRequirements,
    solver_options: Mapping[str, object],
) -> CacheKey:
    """The full identity of one game solve (the cache key).

    Args:
        model: Protocol model of the solve.
        requirements: Application requirements of the solve.
        solver_options: Options forwarded to the solver backend.

    Returns:
        A hashable key; two solves with equal keys are guaranteed to produce
        bit-identical solutions (the game is deterministic, and the key
        names the :data:`SOLVER_REVISION` that computes it).
    """
    return (
        "solve",
        SOLVER_REVISION,
        model_fingerprint(model),
        freeze(requirements),
        freeze(dict(solver_options)),
    )


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of a :class:`SolveCache`.

    Attributes:
        hits: Number of lookups answered from the cache.
        misses: Number of lookups that required a fresh solve.
    """

    hits: int = 0
    misses: int = 0


class SolveCache:
    """Thread-safe memo of :class:`~repro.core.results.GameSolution`.

    Args:
        store: Optional persistent backend (duck-typed against
            :class:`repro.store.ResultStore`: ``get_solution(key)`` /
            ``put_solution(key, solution)``).  Reads fall through to the
            store on a memory miss (read-through) and fresh solutions are
            persisted as they are stored (write-behind), so the memory
            layer stays the fast path while the store survives the
            process.
    """

    def __init__(self, store: Optional[Any] = None) -> None:
        self._store = store
        self._entries: Dict[CacheKey, GameSolution] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    @property
    def store(self) -> Optional[Any]:
        """The persistent backend, or ``None`` for a purely in-memory cache."""
        return self._store

    def get(self, key: CacheKey) -> Optional[GameSolution]:
        """Return the memoized solution for ``key``, counting hit or miss.

        A memory miss falls through to the persistent store (when one is
        attached); a store hit is counted as a cache hit and promoted into
        the memory layer, without being written back to the store.
        """
        with self._lock:
            solution = self._entries.get(key)
            if solution is not None:
                self._hits += 1
                return solution
        if self._store is not None:
            # Disk I/O happens outside the lock; the store is thread-safe.
            solution = self._store.get_solution(key)
            if solution is not None:
                with self._lock:
                    self._entries[key] = solution
                    self._hits += 1
                return solution
        with self._lock:
            self._misses += 1
        return None

    def put(self, key: CacheKey, solution: GameSolution) -> None:
        """Store a solution under ``key``.

        With a persistent backend attached, the solution is also written
        behind to the store (idempotently — an existing record is left
        untouched).
        """
        with self._lock:
            self._entries[key] = solution
        if self._store is not None:
            self._store.put_solution(key, solution)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss counters."""
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses)


#: Process-wide cache shared by the default runners (CLI, experiments).
_DEFAULT_CACHE = SolveCache()


def default_cache() -> SolveCache:
    """The process-wide solve cache used when no explicit cache is given."""
    return _DEFAULT_CACHE
