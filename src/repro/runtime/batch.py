"""Batched game solving: the engine behind every sweep, suite and campaign.

A :class:`BatchRunner` takes a batch of independent :class:`SolveTask`\\ s —
typically (protocol × swept requirement value) or (scenario × protocol) —
resolves what it can from a :class:`~repro.runtime.cache.SolveCache`,
chunks the remaining solves across an
:class:`~repro.runtime.executor.ExecutorPolicy`, and reassembles one
:class:`TaskOutcome` per task in submission order, so parallel runs are
bit-identical to serial ones.

Errors are captured *per task*, so one failing solve never poisons the
rest of its chunk.  The runner then applies the library-wide policy: a
model that could not be built and an infeasible game are *data*, recorded
in their outcomes; any other solver error is a bug and re-raises once the
batch has landed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.requirements import ApplicationRequirements
from repro.core.results import GameSolution
from repro.core.tradeoff import EnergyDelayGame
from repro.exceptions import ConfigurationError, InfeasibleProblemError
from repro.protocols.base import DutyCycledMACModel
from repro.protocols.registry import create_protocol
from repro.runtime.cache import CacheStats, SolveCache, default_cache, solve_key
from repro.runtime.executor import ExecutorPolicy, SerialExecutor, resolve_executor
from repro.scenario import Scenario


@dataclass(frozen=True)
class SolveTask:
    """One independent game solve of a batch.

    Attributes:
        model: Protocol model to solve the game for, or ``None`` when it
            could not be built (``build_error`` says why; the task is then
            data, never dispatched).
        requirements: Application requirements of this solve.
        solver_options: Options forwarded to the game's solver backend.
        tag: Caller-defined payload carried into the outcome (a work unit,
            a swept value, a ``(scenario, protocol)`` pair, ...).
        build_error: Why the model could not be built, when it could not.
    """

    model: Optional[DutyCycledMACModel]
    requirements: ApplicationRequirements
    solver_options: Mapping[str, object] = field(default_factory=dict)
    tag: Any = None
    build_error: str = ""

    @classmethod
    def build(
        cls,
        protocol: str,
        scenario: Scenario,
        requirements: ApplicationRequirements,
        solver_options: Mapping[str, object],
        tag: Any = None,
    ) -> "SolveTask":
        """Construct the task's protocol model, capturing construction failures.

        The scenario may render the protocol's parameter space empty (e.g. a
        drift bound below the minimum slot): that is a property of the pair,
        not a failure, so it becomes a ``build_error`` task instead of
        raising.  Validation is forced *here*, not inside a pool worker
        where it would poison the batch.
        """
        try:
            model = create_protocol(protocol, scenario)
            model.parameter_space  # noqa: B018 - force lazy validation eagerly
        except (ConfigurationError, ValueError) as error:
            return cls(
                model=None,
                requirements=requirements,
                tag=tag,
                build_error=f"model construction failed: {error}",
            )
        return cls(
            model=model,
            requirements=requirements,
            solver_options=dict(solver_options),
            tag=tag,
        )


@dataclass(frozen=True)
class TaskOutcome:
    """Result of one :class:`SolveTask`, successful or not.

    Attributes:
        task: The task this outcome answers.
        solution: The game solution, or ``None`` if there is none.
        error: The captured solver exception (an
            :class:`~repro.exceptions.InfeasibleProblemError`), or ``None``.
        solve_seconds: Wall-clock time of the solve (0 when it was not
            solved in this batch: cache hits, in-batch duplicates and
            unbuildable models).
    """

    task: SolveTask
    solution: Optional[GameSolution] = None
    error: Optional[BaseException] = None
    solve_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the solve produced a solution."""
        return self.solution is not None

    @property
    def infeasible(self) -> bool:
        """Whether the solve failed because the requirements are infeasible."""
        return isinstance(self.error, InfeasibleProblemError)

    @property
    def tag(self) -> Any:
        """The task's caller-defined payload."""
        return self.task.tag

    @property
    def error_message(self) -> str:
        """Human-readable reason when the task has no solution."""
        if self.task.build_error:
            return self.task.build_error
        return str(self.error) if self.error is not None else ""


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
        except Exception as error:  # noqa: BLE001 - captured per task, policy applied in run()
            results.append((index, None, error, time.perf_counter() - started))
    return results


class BatchRunner:
    """Run a batch of game solves through a cache and an executor policy.

    Args:
        executor: Where the solves run; defaults to the serial policy.
        cache: Solve memo consulted before dispatch and updated as each
            chunk lands; ``None`` disables caching.
    """

    def __init__(
        self,
        executor: Optional[ExecutorPolicy] = None,
        cache: Optional[SolveCache] = None,
    ) -> None:
        self._executor = executor if executor is not None else SerialExecutor()
        self._cache = cache

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
            if self._cache.store is not None:
                suffix += "+store"
        return f"{self._executor.describe()}{suffix}"

    def _chunks(self, payloads: Sequence[_Payload]) -> List[List[_Payload]]:
        # Aim for ~4 chunks per worker so stragglers can be rebalanced.
        size = max(1, math.ceil(len(payloads) / (self._executor.workers * 4)))
        return [list(payloads[i : i + size]) for i in range(0, len(payloads), size)]

    def run(self, tasks: Sequence[SolveTask]) -> List[TaskOutcome]:
        """Execute every task and return outcomes in submission order.

        Args:
            tasks: The independent solve tasks of one batch.

        Returns:
            One :class:`TaskOutcome` per task, ordered by submission index.
            A task without a model and an infeasible game are recorded in
            their outcome, never raised.

        Raises:
            Exception: the first non-infeasibility solver error, in task
                order, once every chunk has landed (so the solves that did
                finish are cached).
        """
        tasks = list(tasks)
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)

        # Cache pass: answer what we can before dispatching anything.  Keys
        # are computed once, here, and reused when storing results: solving
        # populates lazy memos on the model, so a key recomputed after the
        # solve would not match the lookup key.  Tasks whose key already
        # appears earlier in the batch are not dispatched either — they are
        # fanned out from their primary's result when it lands.
        pending: List[_Payload] = []
        keys: List[Optional[Any]] = [None] * len(tasks)
        primary_for_key: Dict[Any, int] = {}
        duplicates: Dict[int, List[int]] = {}
        for index, task in enumerate(tasks):
            if task.model is None:
                outcomes[index] = TaskOutcome(task=task)
                continue
            if self._cache is not None:
                keys[index] = solve_key(task.model, task.requirements, task.solver_options)
                primary = primary_for_key.get(keys[index])
                if primary is not None:
                    duplicates.setdefault(primary, []).append(index)
                    continue
                solution = self._cache.get(keys[index])
                if solution is not None:
                    outcomes[index] = TaskOutcome(task=task, solution=solution)
                    continue
                primary_for_key[keys[index]] = index
            pending.append((index, task.model, task.requirements, dict(task.solver_options)))

        def _absorb_chunk(_: int, chunk_results: List[_Result]) -> None:
            for index, solution, error, seconds in chunk_results:
                outcomes[index] = TaskOutcome(
                    task=tasks[index], solution=solution, error=error, solve_seconds=seconds
                )
                if solution is not None and self._cache is not None:
                    self._cache.put(keys[index], solution)
                # Fan the result out to same-key tasks of this batch.
                for dup_index in duplicates.get(index, ()):
                    outcomes[dup_index] = TaskOutcome(
                        task=tasks[dup_index], solution=solution, error=error
                    )

        if pending:
            self._executor.map_ordered(_solve_chunk, self._chunks(pending), _absorb_chunk)

        finished = [outcome for outcome in outcomes if outcome is not None]
        for outcome in finished:
            if outcome.error is not None and not outcome.infeasible:
                # Only infeasibility is data; anything else is a real bug.
                raise outcome.error
        return finished


def build_runner(
    workers: Optional[int] = 1,
    use_cache: bool = True,
    store: Optional[Any] = None,
) -> BatchRunner:
    """Assemble the :class:`BatchRunner` a worker count and cache switch describe.

    Args:
        workers: Worker count handed to
            :func:`~repro.runtime.executor.resolve_executor`: 1 (the
            default) → serial, N → process pool, ``None``/0 → one per CPU
            the process may run on.
        use_cache: Whether solves are memoized; ``False`` forces every solve
            to be recomputed — and deliberately bypasses ``store`` too, so
            "no cache" means *no cache of any kind*, never a silent
            store-only half-measure.
        store: Optional persistent result store
            (:class:`repro.store.ResultStore`).  When given (and caching is
            on), the runner gets a *fresh* cache instance backed by the
            store instead of the process-wide one, so the run's hit/miss
            counters are its own.

    Raises:
        ConfigurationError: if the worker count is negative.
    """
    cache: Optional[SolveCache] = None
    if use_cache:
        cache = SolveCache(store=store) if store is not None else default_cache()
    return BatchRunner(executor=resolve_executor(workers), cache=cache)
