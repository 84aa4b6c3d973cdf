"""Batched game solving: the engine behind every sweep and grid.

A :class:`BatchRunner` takes a grid of independent solve tasks — typically
(protocol × swept requirement value) — resolves what it can from a
:class:`~repro.runtime.cache.SolveCache`, chunks the remaining solves across
an :class:`~repro.runtime.executor.ExecutorPolicy`, and reassembles the
outcomes in submission order so parallel runs are bit-identical to serial
ones.

Errors are captured *per task*: an infeasible requirement value (or any
other per-solve failure) is recorded in its :class:`TaskOutcome` without
poisoning the rest of its chunk.  Callers decide which errors to swallow
(sweeps treat :class:`~repro.exceptions.InfeasibleProblemError` as data) and
which to re-raise.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.requirements import ApplicationRequirements
from repro.core.results import GameSolution
from repro.core.tradeoff import EnergyDelayGame
from repro.exceptions import InfeasibleProblemError
from repro.protocols.base import DutyCycledMACModel
from repro.runtime.cache import CacheStats, SolveCache, default_cache, solve_key
from repro.runtime.executor import ExecutorPolicy, SerialExecutor, resolve_executor

#: Progress callback: ``progress(completed_tasks, total_tasks)``.
ProgressCallback = Callable[[int, int], None]


@dataclass(frozen=True)
class SolveTask:
    """One independent game solve of a task grid.

    Attributes:
        model: Protocol model to solve the game for.
        requirements: Application requirements of this solve.
        solver_options: Options forwarded to the game's solver backend.
        label: Grouping key for callers (usually the protocol name).
        tag: Caller-defined payload carried into the outcome (usually the
            swept requirement value).
    """

    model: DutyCycledMACModel
    requirements: ApplicationRequirements
    solver_options: Mapping[str, object] = field(default_factory=dict)
    label: str = ""
    tag: Any = None


@dataclass(frozen=True)
class TaskOutcome:
    """Result of one :class:`SolveTask`, successful or not.

    Attributes:
        index: Submission index of the task in the batch.
        label: The task's grouping key.
        tag: The task's caller-defined payload.
        solution: The game solution, or ``None`` if the solve failed.
        error: The captured exception, or ``None`` on success.
        from_cache: Whether the solution was answered by the cache.
        solve_seconds: Wall-clock time of the solve (0 for cache hits).
    """

    index: int
    label: str
    tag: Any
    solution: Optional[GameSolution]
    error: Optional[BaseException] = None
    from_cache: bool = False
    solve_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the solve produced a solution."""
        return self.solution is not None

    @property
    def infeasible(self) -> bool:
        """Whether the solve failed because the requirements are infeasible."""
        return isinstance(self.error, InfeasibleProblemError)


#: Wire format of one pending solve: (index, model, requirements, options).
_Payload = Tuple[int, DutyCycledMACModel, ApplicationRequirements, Dict[str, object]]
#: Wire format of one finished solve: (index, solution, error, seconds).
_Result = Tuple[int, Optional[GameSolution], Optional[BaseException], float]


def _solve_chunk(chunk: Sequence[_Payload]) -> List[_Result]:
    """Solve every task of a chunk, capturing failures per task.

    Module-level so process-pool workers can resolve it by reference; the
    per-task ``try`` is what keeps an infeasible value from poisoning the
    rest of its chunk.
    """
    results: List[_Result] = []
    for index, model, requirements, options in chunk:
        started = time.perf_counter()
        try:
            solution = EnergyDelayGame(model, requirements, **options).solve()
            results.append((index, solution, None, time.perf_counter() - started))
        except Exception as error:  # noqa: BLE001 - captured per task, re-raised by callers
            results.append((index, None, error, time.perf_counter() - started))
    return results


class BatchRunner:
    """Run a grid of game solves through a cache and an executor policy.

    Args:
        executor: Where the solves run; defaults to the serial policy.
        cache: Solve memo consulted before dispatch and updated after;
            ``None`` disables caching.
        chunk_size: Number of tasks per dispatched chunk.  ``None`` picks a
            size that gives each worker a few chunks (for progress
            granularity and tail-latency balance).
        progress: Optional ``progress(done, total)`` callback, invoked after
            the cache pass and after every finished chunk.

    Raises:
        ValueError: if ``chunk_size`` is given but smaller than 1.
    """

    def __init__(
        self,
        executor: Optional[ExecutorPolicy] = None,
        cache: Optional[SolveCache] = None,
        chunk_size: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1 or None, got {chunk_size}")
        self._executor = executor if executor is not None else SerialExecutor()
        self._cache = cache
        self._chunk_size = chunk_size
        self._progress = progress

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def executor(self) -> ExecutorPolicy:
        """The executor policy solves are dispatched to."""
        return self._executor

    @property
    def cache(self) -> Optional[SolveCache]:
        """The solve cache, or ``None`` when caching is disabled."""
        return self._cache

    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the attached cache (zeros when disabled)."""
        if self._cache is None:
            return CacheStats()
        return self._cache.stats()

    def describe(self) -> str:
        """Short label for reports, e.g. ``"process[4]+cache+store"``."""
        suffix = ""
        if self._cache is not None:
            suffix = "+cache"
            if getattr(self._cache, "store", None) is not None:
                suffix += "+store"
        return f"{self._executor.describe()}{suffix}"

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _chunks(self, payloads: Sequence[_Payload]) -> List[List[_Payload]]:
        if self._chunk_size is not None:
            size = self._chunk_size
        else:
            # Aim for ~4 chunks per worker so stragglers can be rebalanced,
            # while serial runs still report progress along the way.
            size = max(1, math.ceil(len(payloads) / (self._executor.workers * 4)))
        return [list(payloads[i : i + size]) for i in range(0, len(payloads), size)]

    def run(self, tasks: Sequence[SolveTask]) -> List[TaskOutcome]:
        """Execute every task and return outcomes in submission order.

        Args:
            tasks: The independent solve tasks of one batch.

        Returns:
            One :class:`TaskOutcome` per task, ordered by submission index.
            Per-task failures are *captured* in the outcome's ``error``
            field, never raised — callers decide which errors to swallow
            (sweeps treat infeasibility as data) and which to re-raise.
        """
        tasks = list(tasks)
        total = len(tasks)
        outcomes: List[Optional[TaskOutcome]] = [None] * total
        completed = 0

        # Cache pass: answer what we can before dispatching anything.  Keys
        # are computed once, here, and reused when storing results: solving
        # populates lazy memos on the model, so a key recomputed after the
        # solve would not match the lookup key.  Tasks whose key already
        # appears earlier in the batch are not dispatched either — they are
        # fanned out from their primary's result when it lands.
        pending: List[_Payload] = []
        keys: List[Optional[Any]] = [None] * total
        primary_for_key: Dict[Any, int] = {}
        duplicates: Dict[int, List[int]] = {}
        for index, task in enumerate(tasks):
            if self._cache is not None:
                keys[index] = solve_key(task.model, task.requirements, task.solver_options)
                primary = primary_for_key.get(keys[index])
                if primary is not None:
                    duplicates.setdefault(primary, []).append(index)
                    continue
                solution = self._cache.get(keys[index])
                if solution is not None:
                    outcomes[index] = TaskOutcome(
                        index=index,
                        label=task.label,
                        tag=task.tag,
                        solution=solution,
                        from_cache=True,
                    )
                    completed += 1
                    continue
                primary_for_key[keys[index]] = index
            pending.append((index, task.model, task.requirements, dict(task.solver_options)))
        if self._progress is not None:
            self._progress(completed, total)

        if pending:
            progress_lock = threading.Lock()

            def _absorb_chunk(_: int, chunk_results: List[_Result]) -> None:
                nonlocal completed
                landed = 0
                for index, solution, error, seconds in chunk_results:
                    task = tasks[index]
                    outcomes[index] = TaskOutcome(
                        index=index,
                        label=task.label,
                        tag=task.tag,
                        solution=solution,
                        error=error,
                        solve_seconds=seconds,
                    )
                    if solution is not None and self._cache is not None:
                        self._cache.put(keys[index], solution)
                    landed += 1
                    # Fan the result out to same-key tasks of this batch.
                    for dup_index in duplicates.get(index, ()):
                        dup_task = tasks[dup_index]
                        outcomes[dup_index] = TaskOutcome(
                            index=dup_index,
                            label=dup_task.label,
                            tag=dup_task.tag,
                            solution=solution,
                            error=error,
                            from_cache=solution is not None,
                        )
                        landed += 1
                with progress_lock:
                    completed += landed
                    done = completed
                if self._progress is not None:
                    self._progress(done, total)

            self._executor.map_ordered(_solve_chunk, self._chunks(pending), _absorb_chunk)

        return [outcome for outcome in outcomes if outcome is not None]

    def run_one(self, task: SolveTask) -> TaskOutcome:
        """Convenience wrapper: run a single task."""
        return self.run([task])[0]


def build_runner(
    workers: Optional[int] = 1,
    mode: str = "auto",
    use_cache: bool = True,
    cache: Optional[SolveCache] = None,
    chunk_size: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    store: Optional[Any] = None,
) -> BatchRunner:
    """Assemble a :class:`BatchRunner` from simple knobs.

    This is the one-stop constructor the CLI and the experiment drivers use:
    ``workers`` picks the executor (1, the default → serial, N → process
    pool, ``None``/0 → one per CPU the process may run on), ``use_cache``
    toggles the process-wide solve cache, and ``cache`` substitutes an
    explicit cache instance.

    Args:
        workers: Worker count handed to
            :func:`~repro.runtime.executor.resolve_executor`; serial unless
            asked otherwise, like :func:`default_runner` and
            ``RuntimePolicy.workers``.
        mode: Executor mode (``"auto"``, ``"serial"``, ``"thread"``,
            ``"process"``).
        use_cache: Whether solves are memoized; ``False`` forces every solve
            to be recomputed — and deliberately bypasses ``store`` too, so
            "no cache" means *no cache of any kind*, never a silent
            store-only half-measure.
        cache: Explicit cache instance (defaults to the process-wide cache
            when ``use_cache`` is true).
        chunk_size: Tasks per dispatched chunk (``None`` auto-sizes).
        progress: Optional ``progress(done, total)`` callback.
        store: Optional persistent result store
            (:class:`repro.store.ResultStore`).  When given (and caching is
            on, with no explicit ``cache``), the runner gets a *fresh*
            cache instance backed by the store instead of the process-wide
            one, so the run's hit/miss counters are its own.

    Returns:
        The assembled :class:`BatchRunner`.

    Raises:
        ConfigurationError: if the executor mode or worker count is invalid.
    """
    if cache is None and use_cache and store is not None:
        cache = SolveCache(store=store)
    if cache is None and use_cache:
        cache = default_cache()
    if not use_cache:
        cache = None
    return BatchRunner(
        executor=resolve_executor(workers, mode),
        cache=cache,
        chunk_size=chunk_size,
        progress=progress,
    )


def default_runner() -> BatchRunner:
    """Serial runner bound to the process-wide cache (the library default)."""
    return BatchRunner(executor=SerialExecutor(), cache=default_cache())
