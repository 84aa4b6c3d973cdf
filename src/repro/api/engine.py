"""Execution engine: plan → :class:`~repro.api.results.ResultSet`.

One executor per workload kind turns an
:class:`~repro.api.plan.ExperimentPlan` into records.  The game-solving
executors build one :class:`~repro.runtime.batch.SolveTask` per work unit
(tagged with the unit) and push the whole batch through the shared
:class:`~repro.runtime.batch.BatchRunner` (solve cache, in-batch dedup,
process-pool fan-out with submission-order reassembly, and the library-wide
error policy: unbuildable models and infeasible games are *data*).
:func:`run` resolves the plan, assembles a runner from the spec's runtime
policy (unless one is passed in), dispatches to the kind's executor and
wraps everything into a :class:`ResultSet` with provenance, plus the
runner, cache and store counters as telemetry.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

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
    tasks = [
        SolveTask(
            model=create_protocol(unit.protocol, scenario),  # errors propagate
            requirements=_unit_requirements(unit, scenario),
            solver_options=_solver_options_of(spec, int(unit.settings["grid_points"])),
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
                solver_options=_solver_options_of(spec, int(unit.settings["grid_points"])),
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


def _execute_suite(
    spec: ExperimentSpec, plan: ExperimentPlan, runner: BatchRunner
) -> Tuple[List[ResultRecord], Any]:
    tasks = []
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
        tasks.append(
            SolveTask.build(
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
        for outcome in runner.run(tasks)
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
        spec: The spec whose runtime policy (workers, cache) applies.
        store: Optional persistent result store
            (:class:`repro.store.ResultStore`) to back the solve cache —
            ignored when the policy disables caching (``--no-cache``
            bypasses *both* layers).
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
        the plan as metadata, the spec's provenance hash, and the runner,
        cache and store counters as telemetry.

    Raises:
        ConfigurationError: on an incomplete or inconsistent spec/plan.
        InfeasibleProblemError: when a ``solve`` spec has no feasible point
            (multi-unit kinds record infeasibility as data instead).
    """
    plan_obj = source if isinstance(source, ExperimentPlan) else expand_plan(source)
    spec = plan_obj.spec
    if runner is None:
        runner = runner_for(spec)
    store = runner.cache.store if runner.cache is not None else None
    store_before = store.traffic() if store is not None else None
    records, raw = _EXECUTORS[spec.kind](spec, plan_obj, runner)
    stats = runner.cache_stats()
    telemetry: Dict[str, object] = {
        "runner": runner.describe(),
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
    }
    if store is not None:
        # Deltas over this run only (the store counts every lookup —
        # solve reads through the cache *and* campaign replications), so
        # "zero fresh results" is checkable per invocation: a fully warm
        # run shows store_misses == store_puts == 0.
        for name, after, before in zip(
            ("store_hits", "store_misses", "store_puts"), store.traffic(), store_before
        ):
            telemetry[name] = after - before
    return ResultSet(
        spec=spec,
        records=records,
        metadata={"plan": plan_obj.describe()},
        raw=raw,
        telemetry=telemetry,
    )
