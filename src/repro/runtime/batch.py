"""Batched work: the engine behind every sweep, suite, validation and campaign.

A :class:`BatchRunner` owns one memoized fan-out, :meth:`BatchRunner.fan_out`,
through which every batch of results goes: the game solves of a
:class:`SolveTask` batch (:meth:`BatchRunner.run`), and the packet-level
replications of the ``validate`` and ``campaign`` kinds.  The fan-out
dispatches work over an :class:`~repro.runtime.executor.ExecutorPolicy` and
reassembles results by submission index, so parallel runs are bit-identical
to serial ones.  With the cache on, it also dispatches each distinct item
once and remembers results in an attached result store; there is no memory
tier, so across runs only a store remembers.

Errors of a solve are captured *per task*, so one failing solve never
poisons the rest of its chunk.  The runner then applies the library-wide
policy: a model that could not be built and an infeasible game are *data*,
recorded in their outcomes; any other solver error is a bug and re-raises
once the batch has landed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.requirements import ApplicationRequirements
from repro.core.results import GameSolution
from repro.core.tradeoff import EnergyDelayGame
from repro.exceptions import ConfigurationError, InfeasibleProblemError
from repro.protocols.base import DutyCycledMACModel
from repro.protocols.registry import create_protocol
from repro.runtime.executor import ExecutorPolicy, SerialExecutor, resolve_executor
from repro.runtime.keys import Key, batch_fingerprints, key_digest, solve_key
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
    """

    task: SolveTask
    solution: Optional[GameSolution] = None
    error: Optional[BaseException] = None

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


@dataclass(frozen=True)
class Memo:
    """How the fan-out remembers one kind of result in a result store.

    Attributes:
        kind: The store record kind the results are filed as.
        key: The identity of an item's result (see :mod:`repro.runtime.keys`),
            given the item and the batch's model fingerprint function
            (:func:`~repro.runtime.keys.batch_fingerprints`).
        encode: The JSON-ready payload a result is stored as, or ``None``
            for a result that is not stored (a failed solve).
        decode: The result a stored payload holds; raises
            :class:`~repro.exceptions.StoreError` on a payload of the wrong
            shape.
    """

    kind: str
    key: Callable[[Any, Callable[[DutyCycledMACModel], Any]], Key]
    encode: Callable[[Any], Optional[Mapping[str, Any]]]
    decode: Callable[[Mapping[str, Any]], Any]


#: Wire format of one pending solve: (model, requirements, options).
_Payload = Tuple[DutyCycledMACModel, ApplicationRequirements, Dict[str, object]]
#: Wire format of one finished solve: (solution, error).
_Result = Tuple[Optional[GameSolution], Optional[BaseException]]


def _solve_chunk(chunk: Sequence[_Payload]) -> List[_Result]:
    """Solve every task of a chunk, capturing failures per task.

    Module-level so process-pool workers can resolve it by reference; the
    per-task ``try`` is what keeps an infeasible value from poisoning the
    rest of its chunk.
    """
    results: List[_Result] = []
    for model, requirements, options in chunk:
        try:
            results.append((EnergyDelayGame(model, requirements, **options).solve(), None))
        except Exception as error:  # noqa: BLE001 - captured per task, policy applied in run()
            results.append((None, error))
    return results


# The solve codec belongs to the store, which only a run that has one loads.
def _encode_solve(result: _Result) -> Optional[Dict[str, object]]:
    from repro.store.codec import solution_to_payload

    return None if result[0] is None else solution_to_payload(result[0])


def _decode_solve(payload: Mapping[str, Any]) -> _Result:
    from repro.store.codec import solution_from_payload

    return solution_from_payload(payload), None


#: A game solve is remembered as its solution, under its solve key.
SOLVES = Memo(
    kind="solve",
    key=lambda item, fingerprint: solve_key(*item, fingerprint=fingerprint),
    encode=_encode_solve,
    decode=_decode_solve,
)


class BatchRunner:
    """Run batches of work through an executor policy and the result cache.

    Args:
        executor: Where the work runs; defaults to the serial policy.
        cache: Whether results are memoized: each distinct item of a batch
            is dispatched once, and with a ``store`` attached, looked up
            there first and written behind as it lands.
        store: Optional persistent result store
            (:class:`repro.store.ResultStore`); ignored without the cache.

    A runner counts its own cache traffic (:meth:`traffic`), so a run that
    owns its runner reports exactly its own hits, misses and puts.  Like
    its executor's session, a runner belongs to one thread at a time.
    """

    def __init__(
        self,
        executor: Optional[ExecutorPolicy] = None,
        cache: bool = False,
        store: Optional[Any] = None,
    ) -> None:
        self._executor = executor if executor is not None else SerialExecutor()
        self._cache = bool(cache)
        self._store = store if cache else None
        self._hits = 0
        self._misses = 0
        self._puts = 0

    @property
    def executor(self) -> ExecutorPolicy:
        """The executor policy work is dispatched to."""
        return self._executor

    @property
    def cache(self) -> bool:
        """Whether results are memoized."""
        return self._cache

    @property
    def store(self) -> Optional[Any]:
        """The persistent result store, or ``None``."""
        return self._store

    def traffic(self) -> Tuple[int, int, int]:
        """``(hits, misses, puts)`` of this runner's cache lookups so far.

        A hit is a distinct item the store answered, a miss one that was
        computed, and a put a fresh result written to the store.
        """
        return self._hits, self._misses, self._puts

    def describe(self) -> str:
        """Short label for reports, e.g. ``"process[4]+cache+store"``."""
        suffix = "+cache" if self._cache else ""
        if self._store is not None:
            suffix += "+store"
        return f"{self._executor.describe()}{suffix}"

    def _chunks(self, indices: Sequence[int]) -> List[List[int]]:
        # Aim for ~4 chunks per worker so stragglers can be rebalanced.
        size = max(1, math.ceil(len(indices) / (self._executor.workers * 4)))
        return [list(indices[i : i + size]) for i in range(0, len(indices), size)]

    def fan_out(
        self,
        task: Callable[[Any], Any],
        items: Sequence[Any],
        memo: Memo,
        chunked: bool = False,
    ) -> List[Any]:
        """Apply ``task`` to every item and return the results in submission order.

        With the cache off this is the executor's ordered map, computing no
        key and touching no store.  With it on, every item is keyed by
        ``memo.key`` (each model fingerprinted once per batch); an item
        whose key appeared earlier in the batch is not dispatched but shares
        its first occurrence's result, and a distinct one is looked up in
        an attached store by its key's digest.  Each fresh result is written
        behind as it lands, so a killed batch keeps everything that
        finished, and it replaces a record that was there but could not be
        read, so an undecodable record is a miss only once.

        Args:
            task: Module-level function run on each item, or on each chunk
                of items when ``chunked`` (it then returns one result per
                item of its chunk).
            items: The work items.
            memo: How results of this kind are keyed and stored.
            chunked: Whether to dispatch the items in chunks (~4 per
                worker) instead of one by one.

        Returns:
            One result per item, by submission index whatever the order the
            workers finish in.
        """
        items = list(items)
        results: List[Any] = [None] * len(items)
        pending = list(range(len(items)))
        digests: Dict[int, str] = {}
        unreadable: Set[int] = set()
        copies: Dict[int, int] = {}
        if self._cache:
            pending = []
            fingerprint = batch_fingerprints()
            first: Dict[Key, int] = {}
            for index, item in enumerate(items):
                key = memo.key(item, fingerprint)
                original = first.setdefault(key, index)
                if original != index:
                    copies[index] = original
                    continue
                stored = None
                if self._store is not None:
                    digest = digests[index] = key_digest(key)
                    stored = self._store.get(digest, memo.decode)
                    if stored is None and self._store.contains(digest):
                        unreadable.add(index)
                if stored is None:
                    self._misses += 1
                    pending.append(index)
                else:
                    self._hits += 1
                    results[index] = stored

        def land(index: int, result: Any) -> None:
            results[index] = result
            if self._store is not None:
                payload = memo.encode(result)
                if payload is not None and self._store.put(
                    digests[index], payload, memo.kind, replace=index in unreadable
                ):
                    self._puts += 1

        if pending and chunked:
            chunks = self._chunks(pending)

            def land_chunk(number: int, chunk_results: List[Any]) -> None:
                for index, result in zip(chunks[number], chunk_results):
                    land(index, result)

            self._executor.map_ordered(
                task, [[items[index] for index in chunk] for chunk in chunks], land_chunk
            )
        elif pending:
            self._executor.map_ordered(
                task,
                [items[index] for index in pending],
                lambda number, result: land(pending[number], result),
            )
        for index, original in copies.items():
            results[index] = results[original]
        return results

    def run(self, tasks: Sequence[SolveTask]) -> List[TaskOutcome]:
        """Solve every task and return outcomes in submission order.

        Args:
            tasks: The independent solve tasks of one batch.

        Returns:
            One :class:`TaskOutcome` per task, ordered by submission index.
            A task without a model and an infeasible game are recorded in
            their outcome, never raised.

        Raises:
            Exception: the first non-infeasibility solver error, in task
                order, once every chunk has landed (so the solves that did
                finish are stored).
        """
        tasks = list(tasks)
        solvable = [index for index, task in enumerate(tasks) if task.model is not None]
        results = self.fan_out(
            _solve_chunk,
            [
                (tasks[index].model, tasks[index].requirements, dict(tasks[index].solver_options))
                for index in solvable
            ],
            SOLVES,
            chunked=True,
        )
        solved = dict(zip(solvable, results))
        outcomes = []
        for index, task in enumerate(tasks):
            solution, error = solved.get(index, (None, None))
            outcomes.append(TaskOutcome(task=task, solution=solution, error=error))
        for outcome in outcomes:
            if outcome.error is not None and not outcome.infeasible:
                # Only infeasibility is data; anything else is a real bug.
                raise outcome.error
        return outcomes


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
        use_cache: Whether results are memoized; ``False`` forces every
            result to be recomputed — and deliberately bypasses ``store``
            too, so "no cache" means *no cache of any kind*, never a silent
            store-only half-measure.
        store: Optional persistent result store
            (:class:`repro.store.ResultStore`) the cache reads through and
            writes behind.

    Raises:
        ConfigurationError: if the worker count is negative.
    """
    return BatchRunner(executor=resolve_executor(workers), cache=use_cache, store=store)
