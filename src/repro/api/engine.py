"""Execution engine: plan → :class:`~repro.api.results.ResultSet`.

Two layers live here.

The **grid primitive** — :class:`GridCell` / :func:`solve_grid` — is the one
way any part of the library turns "(scenario, protocol, requirements)"
cells into game solutions: it pushes every constructible cell through the
shared :class:`~repro.runtime.batch.BatchRunner` (solve cache, in-batch
dedup, process-pool fan-out with submission-order reassembly) and applies
the library-wide error policy (model-construction failures and infeasible
games are *data*; anything else re-raises).  The game-solving executors
below and :func:`repro.validation.campaign.run_campaign` (the ``campaign``
kind's engine) all route through it.

The **executors** — one per workload kind — turn an
:class:`~repro.api.plan.ExperimentPlan` into records: :func:`run` resolves
the plan, assembles a runner from the spec's runtime policy (unless one is
passed in), dispatches to the kind's executor and wraps everything into a
:class:`ResultSet` with provenance and runtime metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.validation import validate_protocols
from repro.api.plan import (
    ExperimentPlan,
    WorkUnit,
    campaign_spec_of,
    plan as expand_plan,
    resolve_scenario,
)
from repro.api.results import ResultRecord, ResultSet
from repro.api.spec import ExperimentSpec
from repro.core.requirements import ApplicationRequirements
from repro.core.results import GameSolution
from repro.exceptions import ConfigurationError
from repro.protocols.base import DutyCycledMACModel
from repro.protocols.registry import create_protocol
from repro.runtime import BatchRunner, SolveTask, build_runner
from repro.scenario import Scenario
from repro.scenarios.presets import scenario_preset
from repro.simulation.runner import SimulationConfig
from repro.validation.campaign import CampaignSpec, run_campaign

#: What :func:`run` accepts: a spec (planned implicitly) or an explicit plan.
Runnable = Union[ExperimentSpec, ExperimentPlan]


# ---------------------------------------------------------------------- #
# The grid primitive
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class GridCell:
    """One (scenario, protocol) game of a solve grid.

    Attributes:
        scenario: Scenario label (preset name, ``"custom"``, or ``""`` for
            sweeps over caller-supplied models).
        protocol: Canonical protocol name.
        model: The constructed protocol model, or ``None`` when
            construction failed (see ``build_error``).
        requirements: The cell's application requirements.
        solver_options: Options forwarded to the game solver.
        tag: Caller-defined payload carried into the outcome (the
            executors put the cell's work unit here).
        build_error: Why the model could not be constructed, when it
            could not (the cell is then data, never dispatched).
    """

    scenario: str
    protocol: str
    model: Optional[DutyCycledMACModel]
    requirements: Optional[ApplicationRequirements]
    solver_options: Mapping[str, object] = field(default_factory=dict)
    tag: Any = None
    build_error: str = ""


@dataclass(frozen=True)
class GridOutcome:
    """Result of one :class:`GridCell`, successful or not."""

    cell: GridCell
    solution: Optional[GameSolution] = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        """Whether the cell's game produced a solution."""
        return self.solution is not None

    @property
    def tag(self) -> Any:
        """The cell's caller-defined payload."""
        return self.cell.tag

    @property
    def error_message(self) -> str:
        """Human-readable reason when the cell has no solution."""
        if self.cell.build_error:
            return self.cell.build_error
        return str(self.error) if self.error is not None else ""


def build_grid_cell(
    scenario_label: str,
    protocol: str,
    scenario: Scenario,
    requirements: ApplicationRequirements,
    solver_options: Mapping[str, object],
    tag: Any = None,
) -> GridCell:
    """Construct a cell's protocol model, capturing construction failures.

    The scenario may render the protocol's parameter space empty (e.g. a
    drift bound below the minimum slot): that is a property of the pair,
    not a failure, so it becomes a ``build_error`` cell instead of raising.
    Validation is forced *here*, not inside a pool worker where it would
    poison the batch.
    """
    try:
        model = create_protocol(protocol, scenario)
        model.parameter_space  # noqa: B018 - force lazy validation eagerly
    except (ConfigurationError, ValueError) as error:
        return GridCell(
            scenario=scenario_label,
            protocol=protocol,
            model=None,
            requirements=None,
            tag=tag,
            build_error=f"model construction failed: {error}",
        )
    return GridCell(
        scenario=scenario_label,
        protocol=protocol,
        model=model,
        requirements=requirements,
        solver_options=dict(solver_options),
        tag=tag,
    )


def solve_grid(cells: Sequence[GridCell], runner: BatchRunner) -> List[GridOutcome]:
    """Solve every constructible cell of a grid through one batch.

    Args:
        cells: The grid, in submission order.
        runner: Batch runner the solves are pushed through.

    Returns:
        One :class:`GridOutcome` per cell, in cell order.  Build failures
        and infeasible games are recorded in the outcome; any other solver
        error is re-raised (only infeasibility is data).
    """
    outcomes: List[Optional[GridOutcome]] = [None] * len(cells)
    tasks: List[SolveTask] = []
    positions: List[int] = []
    for position, cell in enumerate(cells):
        if cell.model is None:
            outcomes[position] = GridOutcome(cell=cell)
            continue
        positions.append(position)
        label = f"{cell.scenario}/{cell.protocol}" if cell.scenario else cell.protocol
        tasks.append(
            SolveTask(
                model=cell.model,
                requirements=cell.requirements,
                solver_options=dict(cell.solver_options),
                label=label,
                tag=cell.tag,
            )
        )
    for position, outcome in zip(positions, runner.run(tasks)):
        if not outcome.ok and not outcome.infeasible:
            # Only infeasibility is data; anything else is a real bug.
            raise outcome.error
        outcomes[position] = GridOutcome(
            cell=cells[position], solution=outcome.solution, error=outcome.error
        )
    return [outcome for outcome in outcomes if outcome is not None]


# ---------------------------------------------------------------------- #
# Row shapes
# ---------------------------------------------------------------------- #


def _tags(unit: WorkUnit) -> Dict[str, object]:
    return {"scenario": unit.scenario, "protocol": unit.protocol}


def _solution_row(
    tags: Mapping[str, object], solution: GameSolution
) -> Dict[str, object]:
    return {
        **tags,
        "feasible": True,
        "E_best": solution.energy_best,
        "L_worst": solution.delay_worst,
        "E_worst": solution.energy_worst,
        "L_best": solution.delay_best,
        "E_star": solution.energy_star,
        "L_star": solution.delay_star,
        "fairness_residual": solution.bargaining.fairness_residual,
    }


def _infeasible_row(tags: Mapping[str, object], reason: str) -> Dict[str, object]:
    return {**tags, "feasible": False, "error": reason[:80]}


def _suite_row(
    tags: Mapping[str, object], solution: Optional[GameSolution], reason: str
) -> Dict[str, object]:
    """One suite cell; feasible and infeasible cells share every column, so
    a mixed batch prints and exports as one table."""
    feasible = solution is not None
    return {
        **tags,
        "feasible": feasible,
        "E_star": solution.energy_star if feasible else "",
        "L_star": solution.delay_star if feasible else "",
        "E_best": solution.energy_best if feasible else "",
        "L_best": solution.delay_best if feasible else "",
        "fairness_residual": solution.bargaining.fairness_residual if feasible else "",
        "error": "" if feasible else reason[:80],
    }


# ---------------------------------------------------------------------- #
# Executors, one per workload kind
# ---------------------------------------------------------------------- #

#: An executor returns ``(records, raw)`` for one plan; ``raw`` is the
#: campaign's :class:`~repro.validation.campaign.CampaignResult` and
#: ``None`` for every other kind.
_Executor = Callable[
    [ExperimentSpec, ExperimentPlan, BatchRunner],
    Tuple[List[ResultRecord], Any],
]


def _solver_options_of(spec: ExperimentSpec, grid_points: int) -> Dict[str, object]:
    """The solver options one ``game-solve`` cell dispatches with."""
    return {"grid_points_per_dimension": int(grid_points), **spec.solver.options}


def _unit_requirements(
    unit: WorkUnit, scenario: Scenario
) -> ApplicationRequirements:
    """The requirements a ``game-solve`` unit's settings describe."""
    settings = unit.settings
    if "parameter" in settings:
        swept = {settings["parameter"]: settings["value"]}
    else:
        swept = {}
    return ApplicationRequirements(
        energy_budget=float(swept.get("energy_budget", settings.get("energy_budget"))),
        max_delay=float(swept.get("max_delay", settings.get("max_delay"))),
        sampling_rate=scenario.sampling_rate,
    )


def _execute_solve(
    spec: ExperimentSpec, plan: ExperimentPlan, runner: BatchRunner
) -> Tuple[List[ResultRecord], Any]:
    _, scenario = resolve_scenario(spec.scenario)
    cells = []
    for unit in plan.units:
        model = create_protocol(unit.protocol, scenario)  # errors propagate
        cells.append(
            GridCell(
                scenario=unit.scenario,
                protocol=unit.protocol,
                model=model,
                requirements=_unit_requirements(unit, scenario),
                solver_options=_solver_options_of(spec, int(unit.settings["grid_points"])),
                tag=unit,
            )
        )
    records: List[ResultRecord] = []
    for outcome in solve_grid(cells, runner):
        if not outcome.ok:
            # A single requested solve with no feasible point is an error.
            raise outcome.error
        records.append(
            ResultRecord(
                unit=outcome.tag,
                row=_solution_row(_tags(outcome.tag), outcome.solution),
                value=outcome.solution,
            )
        )
    return records, None


def _execute_sweep_family(
    spec: ExperimentSpec, plan: ExperimentPlan, runner: BatchRunner
) -> Tuple[List[ResultRecord], Any]:
    _, scenario = resolve_scenario(spec.scenario)
    models: Dict[str, DutyCycledMACModel] = {}
    cells = []
    for unit in plan.units:
        if unit.protocol not in models:
            models[unit.protocol] = create_protocol(unit.protocol, scenario)
        cells.append(
            GridCell(
                scenario=unit.scenario,
                protocol=unit.protocol,
                model=models[unit.protocol],
                requirements=_unit_requirements(unit, scenario),
                solver_options=_solver_options_of(spec, int(unit.settings["grid_points"])),
                tag=unit,
            )
        )
    records: List[ResultRecord] = []
    for outcome in solve_grid(cells, runner):
        unit = outcome.tag
        # The swept requirement sits right after the scenario/protocol tags.
        tags = {
            **_tags(unit),
            str(unit.settings["parameter"]): float(unit.settings["value"]),
        }
        if outcome.ok:
            row = _solution_row(tags, outcome.solution)
        else:
            row = _infeasible_row(tags, outcome.error_message)
        records.append(
            ResultRecord(
                unit=unit,
                row=row,
                ok=outcome.ok,
                error=outcome.error_message,
                value=outcome.solution,
            )
        )
    return records, None


def _execute_suite(
    spec: ExperimentSpec, plan: ExperimentPlan, runner: BatchRunner
) -> Tuple[List[ResultRecord], Any]:
    cells = []
    for unit in plan.units:
        preset = scenario_preset(unit.scenario)
        requirements = preset.requirements()
        if unit.settings.get("energy_budget") is not None:
            requirements = requirements.with_energy_budget(
                float(unit.settings["energy_budget"])
            )
        if unit.settings.get("max_delay") is not None:
            requirements = requirements.with_max_delay(
                float(unit.settings["max_delay"])
            )
        cells.append(
            build_grid_cell(
                scenario_label=unit.scenario,
                protocol=unit.protocol,
                scenario=preset.scenario,
                requirements=requirements,
                solver_options=_solver_options_of(spec, int(unit.settings["grid_points"])),
                tag=unit,
            )
        )
    records = [
        ResultRecord(
            unit=outcome.tag,
            row=_suite_row(_tags(outcome.tag), outcome.solution, outcome.error_message),
            ok=outcome.ok,
            error=outcome.error_message,
            value=outcome.solution,
        )
        for outcome in solve_grid(cells, runner)
    ]
    return records, None


def _execute_validate(
    spec: ExperimentSpec, plan: ExperimentPlan, runner: BatchRunner
) -> Tuple[List[ResultRecord], Any]:
    _, scenario = resolve_scenario(spec.scenario)
    jobs = []
    for unit in plan.units:
        model = create_protocol(unit.protocol, scenario)
        parameters = unit.settings.get("parameters")
        if parameters is None:
            space = model.parameter_space
            parameters = space.to_dict(space.midpoint())
        jobs.append((model, dict(parameters)))
    config = SimulationConfig(
        horizon=float(spec.simulation.horizon), seed=int(spec.simulation.seed)
    )
    reports = validate_protocols(jobs, config, executor=runner.executor)
    records = []
    for unit, report in zip(plan.units, reports):
        summary = dict(report.as_dict())
        parameters = summary.pop("parameters")
        row = {
            "scenario": unit.scenario,
            **summary,
            "parameters": ", ".join(
                f"{key}={value:.6g}" for key, value in parameters.items()
            ),
        }
        records.append(ResultRecord(unit=unit, row=row, value=report))
    return records, None


def _execute_campaign(
    spec: ExperimentSpec, plan: ExperimentPlan, runner: BatchRunner
) -> Tuple[List[ResultRecord], Any]:
    if not plan.units:
        # An empty (fully filtered/sharded-away) plan must not fall through
        # to CampaignSpec, whose empty scenario/protocol tuples mean "all".
        return [], None
    scenarios = plan.scenario_names
    protocols = plan.protocol_names
    if len(plan.units) != len(scenarios) * len(protocols):
        raise ConfigurationError(
            "a campaign plan must stay rectangular (every scenario × every "
            f"protocol); got {len(plan.units)} unit(s) over "
            f"{len(scenarios)} scenario(s) × {len(protocols)} protocol(s)"
        )
    full = campaign_spec_of(spec)
    campaign_spec = CampaignSpec(
        scenarios=tuple(scenarios),
        protocols=tuple(protocols),
        replications=full.replications,
        base_seed=full.base_seed,
        horizon=full.horizon,
        confidence=full.confidence,
        grid_points_per_dimension=full.grid_points_per_dimension,
        energy_tolerance=full.energy_tolerance,
        delay_tolerance=full.delay_tolerance,
        min_delivery_ratio=full.min_delivery_ratio,
    )
    result = run_campaign(campaign_spec, runner)
    records = []
    for unit, cell, row in zip(plan.units, result.cells, result.rows()):
        ok = cell.feasible and cell.passed
        if not cell.feasible:
            error = cell.solve_error
        elif not cell.passed:
            failed = [c.metric for c in cell.checks if c.status == "fail"]
            error = f"failed checks: {', '.join(failed)}"
        else:
            error = ""
        records.append(
            ResultRecord(unit=unit, row=row, ok=ok, error=error, value=cell)
        )
    return records, result


_EXECUTORS: Dict[str, _Executor] = {
    "solve": _execute_solve,
    "sweep": _execute_sweep_family,
    "figure1": _execute_sweep_family,
    "figure2": _execute_sweep_family,
    "suite": _execute_suite,
    "validate": _execute_validate,
    "campaign": _execute_campaign,
}


def runner_for(spec: ExperimentSpec, store: Optional[Any] = None) -> BatchRunner:
    """Assemble the :class:`BatchRunner` a spec's runtime policy describes.

    Args:
        spec: The spec whose runtime policy (workers, mode, cache) applies.
        store: Optional persistent result store
            (:class:`repro.store.ResultStore`) to back the solve cache —
            ignored when the policy disables caching (``--no-cache``
            bypasses *both* layers).
    """
    runtime = spec.runtime
    return build_runner(
        workers=runtime.workers,
        mode=runtime.mode,
        use_cache=runtime.cache,
        chunk_size=runtime.chunk_size,
        store=store,
    )


def run(source: Runnable, runner: Optional[BatchRunner] = None) -> ResultSet:
    """Execute a spec (or an explicit, possibly filtered plan).

    Args:
        source: An :class:`ExperimentSpec` (planned implicitly) or an
            :class:`ExperimentPlan` from :func:`repro.api.plan.plan` —
            filtered/sharded plans run only their remaining units.
        runner: Batch runner override; defaults to the one the spec's
            runtime policy describes.

    Returns:
        The uniform :class:`ResultSet`: one tagged record per work unit,
        run metadata, and the spec's provenance hash.

    Raises:
        ConfigurationError: on an incomplete or inconsistent spec/plan.
        InfeasibleProblemError: when a ``solve`` spec has no feasible point
            (multi-unit kinds record infeasibility as data instead).
    """
    plan_obj = source if isinstance(source, ExperimentPlan) else expand_plan(source)
    spec = plan_obj.spec
    if runner is None:
        runner = runner_for(spec)
    store = getattr(runner.cache, "store", None)
    store_before = store.stats() if store is not None else None
    records, raw = _EXECUTORS[spec.kind](spec, plan_obj, runner)
    stats = runner.cache_stats()
    metadata: Dict[str, object] = {
        "plan": plan_obj.describe(),
        "runner": runner.describe(),
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
    }
    if store is not None:
        # Deltas over this run only (the store counts every lookup —
        # solve reads through the cache *and* campaign replications), so
        # "zero fresh results" is checkable per invocation: a fully warm
        # run shows store_misses == store_puts == 0.
        store_after = store.stats()
        metadata["store_hits"] = store_after.hits - store_before.hits
        metadata["store_misses"] = store_after.misses - store_before.misses
        metadata["store_puts"] = store_after.puts - store_before.puts
    return ResultSet(spec=spec, records=records, metadata=metadata, raw=raw)
