"""Execution engine: plan → :class:`~repro.api.results.ResultSet`.

One executor per workload kind turns an
:class:`~repro.api.plan.ExperimentPlan` into records.  The game-solving
executors build one :class:`~repro.runtime.batch.SolveTask` per work unit
(tagged with the unit) and push the whole batch through the shared
:class:`~repro.runtime.batch.BatchRunner` (in-batch dedup, the result store
when one is attached, process-pool fan-out with submission-order
reassembly, and the library-wide error policy: unbuildable models and
infeasible games are *data*); the ``validate`` and ``campaign`` kinds send
their simulations through the same runner's fan-out.  :func:`run` resolves
the plan, assembles a runner from the spec's runtime policy (unless one is
passed in), dispatches to the kind's executor and wraps everything into a
:class:`ResultSet` with provenance, plus the runner's description and this
run's own cache and store counters as telemetry.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.validation import ValidationReport
from repro.api.plan import ExperimentPlan, WorkUnit, plan as expand_plan, resolve_scenario
from repro.api.results import ResultRecord, ResultSet
from repro.api.spec import ExperimentSpec
from repro.core.requirements import ApplicationRequirements
from repro.core.results import GameSolution
from repro.protocols.base import DutyCycledMACModel
from repro.protocols.registry import create_protocol
from repro.runtime import BatchRunner, SolveTask, TaskOutcome, build_runner
from repro.scenario import Scenario
from repro.scenarios.presets import scenario_preset
from repro.simulation.runner import ReplicationMeasurement, SimulationConfig
from repro.validation.campaign import (
    CampaignCell,
    CampaignResult,
    aggregate_measurements,
    replication_seed,
    simulate_replications,
)

#: What :func:`run` accepts: a spec (planned implicitly) or an explicit plan.
Runnable = Union[ExperimentSpec, ExperimentPlan]


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


def _solver_options(unit: WorkUnit) -> Dict[str, object]:
    """The solver options one ``game-solve`` unit dispatches with."""
    return {"grid_points_per_dimension": int(unit.settings["grid_points"])}


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
    tasks = [
        SolveTask(
            model=create_protocol(unit.protocol, scenario),  # errors propagate
            requirements=_unit_requirements(unit, scenario),
            solver_options=_solver_options(unit),
            tag=unit,
        )
        for unit in plan.units
    ]
    records: List[ResultRecord] = []
    for outcome in runner.run(tasks):
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
    tasks = []
    for unit in plan.units:
        if unit.protocol not in models:
            models[unit.protocol] = create_protocol(unit.protocol, scenario)
        tasks.append(
            SolveTask(
                model=models[unit.protocol],
                requirements=_unit_requirements(unit, scenario),
                solver_options=_solver_options(unit),
                tag=unit,
            )
        )
    records: List[ResultRecord] = []
    for outcome in runner.run(tasks):
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


def _preset_task(unit: WorkUnit) -> SolveTask:
    """The game solve of a ``suite`` or ``campaign`` unit: its preset's
    requirements with the spec's overrides, at the unit's grid."""
    preset = scenario_preset(unit.scenario)
    requirements = preset.requirements()
    if unit.settings.get("energy_budget") is not None:
        requirements = requirements.with_energy_budget(float(unit.settings["energy_budget"]))
    if unit.settings.get("max_delay") is not None:
        requirements = requirements.with_max_delay(float(unit.settings["max_delay"]))
    return SolveTask.build(
        protocol=unit.protocol,
        scenario=preset.scenario,
        requirements=requirements,
        solver_options=_solver_options(unit),
        tag=unit,
    )


def _execute_suite(
    spec: ExperimentSpec, plan: ExperimentPlan, runner: BatchRunner
) -> Tuple[List[ResultRecord], Any]:
    records = [
        ResultRecord(
            unit=outcome.tag,
            row=_suite_row(_tags(outcome.tag), outcome.solution, outcome.error_message),
            ok=outcome.ok,
            error=outcome.error_message,
            value=outcome.solution,
        )
        for outcome in runner.run([_preset_task(unit) for unit in plan.units])
    ]
    return records, None


def _execute_validate(
    spec: ExperimentSpec, plan: ExperimentPlan, runner: BatchRunner
) -> Tuple[List[ResultRecord], Any]:
    _, scenario = resolve_scenario(spec.scenario)
    config = SimulationConfig(
        horizon=float(spec.simulation.horizon), seed=int(spec.simulation.seed)
    )
    payloads = []
    for unit in plan.units:
        model = create_protocol(unit.protocol, scenario)
        parameters = unit.settings.get("parameters")
        if parameters is None:
            space = model.parameter_space
            parameters = space.to_dict(space.midpoint())
        payloads.append((model, model.coerce(parameters), config))
    measurements = simulate_replications(payloads, runner)
    records = []
    for unit, (model, params, _), measurement in zip(plan.units, payloads, measurements):
        report = ValidationReport.from_measurement(model, params, measurement)
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


def _nash_parameters(outcome: TaskOutcome) -> Dict[str, float]:
    """The Nash bargaining point a feasible cell's replications run at."""
    return outcome.task.model.coerce(outcome.solution.bargaining.point.parameters)


def _replication_seeds(spec: ExperimentSpec, unit: WorkUnit) -> Tuple[int, ...]:
    campaign = spec.campaign
    return tuple(
        replication_seed(campaign.base_seed, unit.scenario, unit.protocol, replication)
        for replication in range(campaign.replications)
    )


def _campaign_cell(
    spec: ExperimentSpec,
    outcome: TaskOutcome,
    measurements: Sequence[ReplicationMeasurement],
) -> CampaignCell:
    """One cell, its replications folded in replication order."""
    unit = outcome.tag
    if not outcome.ok:
        # A model that could not be built or an infeasible game is data.
        return CampaignCell(
            scenario=unit.scenario,
            protocol=unit.protocol,
            feasible=False,
            solve_error=outcome.error_message,
        )
    model, params = outcome.task.model, _nash_parameters(outcome)
    energy = model.node_energy(params, model.scenario.topology.bottleneck_ring)
    delay = model.system_latency(params)
    metrics, checks = aggregate_measurements(spec.campaign, energy, delay, measurements)
    return CampaignCell(
        scenario=unit.scenario,
        protocol=unit.protocol,
        feasible=True,
        parameters=dict(params),
        analytical_energy=energy,
        analytical_delay=delay,
        seeds=_replication_seeds(spec, unit),
        metrics=metrics,
        checks=checks,
        generated=sum(m.generated for m in measurements),
        delivered=sum(m.delivered for m in measurements),
        dropped=sum(m.dropped for m in measurements),
    )


def _campaign_section(spec: ExperimentSpec, plan: ExperimentPlan) -> Dict[str, object]:
    """The campaign artifact's ``spec`` section: the settings the plan ran.

    The ``requirements`` overrides reach every solve, so they are written
    too, but only when the spec sets them: a spec without them keeps the
    section's bytes.
    """
    campaign = spec.campaign
    section: Dict[str, object] = {
        "scenarios": plan.scenario_names,
        "protocols": plan.protocol_names,
        "replications": campaign.replications,
        "base_seed": campaign.base_seed,
        "horizon_s": campaign.horizon,
        "confidence": campaign.confidence,
        "grid_points_per_dimension": spec.solver.grid_points,
        "energy_tolerance": campaign.energy_tolerance,
        "delay_tolerance": campaign.delay_tolerance,
        "min_delivery_ratio": campaign.min_delivery_ratio,
    }
    if spec.requirements is not None:
        overrides = {
            name: value for name, value in spec.requirements.as_dict().items() if value is not None
        }
        if overrides:
            section["requirements"] = overrides
    return section


def _execute_campaign(
    spec: ExperimentSpec, plan: ExperimentPlan, runner: BatchRunner
) -> Tuple[List[ResultRecord], Any]:
    if not plan.units:
        # A fully filtered or sharded-away plan has no campaign artifact.
        return [], None
    outcomes = runner.run([_preset_task(unit) for unit in plan.units])
    payloads = []
    for outcome in outcomes:
        if outcome.ok:
            model, params = outcome.task.model, _nash_parameters(outcome)
            payloads.extend(
                (model, params, SimulationConfig(horizon=spec.campaign.horizon, seed=seed))
                for seed in _replication_seeds(spec, outcome.tag)
            )
    measurements = simulate_replications(payloads, runner)
    # Each feasible cell owns the next ``replications`` measurements.
    count = spec.campaign.replications
    per_cell = (measurements[start : start + count] for start in range(0, len(measurements), count))
    result = CampaignResult(
        spec=_campaign_section(spec, plan),
        cells=[
            _campaign_cell(spec, outcome, next(per_cell) if outcome.ok else ())
            for outcome in outcomes
        ],
    )
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
        spec: The spec whose runtime policy (workers, cache) applies.
        store: Optional persistent result store
            (:class:`repro.store.ResultStore`) the cache reads through and
            writes behind — ignored when the policy disables caching
            (``--no-cache`` bypasses the store too).
    """
    return build_runner(
        workers=spec.runtime.workers, use_cache=spec.runtime.cache, store=store
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
        the plan as metadata, the spec's provenance hash, and as telemetry
        the runner's description and this run's own cache counters (with a
        store attached, its hits, misses and puts as well).

    Raises:
        ConfigurationError: on an incomplete or inconsistent spec/plan.
        InfeasibleProblemError: when a ``solve`` spec has no feasible point
            (multi-unit kinds record infeasibility as data instead).
    """
    plan_obj = source if isinstance(source, ExperimentPlan) else expand_plan(source)
    spec = plan_obj.spec
    if runner is None:
        runner = runner_for(spec)
    before = runner.traffic()
    records, raw = _EXECUTORS[spec.kind](spec, plan_obj, runner)
    # The runner counts only the lookups made through it, so a runner
    # passed to several runs still reports each run's own traffic, and
    # "zero fresh results" is checkable per run: a fully warm run shows
    # store_misses == store_puts == 0.
    hits, misses, puts = (after - earlier for after, earlier in zip(runner.traffic(), before))
    telemetry: Dict[str, object] = {
        "runner": runner.describe(),
        "cache_hits": hits,
        "cache_misses": misses,
    }
    if runner.store is not None:
        telemetry.update(store_hits=hits, store_misses=misses, store_puts=puts)
    return ResultSet(
        spec=spec,
        records=records,
        metadata={"plan": plan_obj.describe()},
        raw=raw,
        telemetry=telemetry,
    )
