"""repro.api — the declarative experiment pipeline.

One programmable front door for every workflow the library offers::

    spec → plan → run → ResultSet

* :class:`ExperimentSpec` *describes* an experiment (scenarios, protocols,
  workload kind, requirement grid, runtime policy) — loadable from a dict,
  JSON or TOML, buildable fluently, hashable for provenance.
* :func:`plan` expands a spec into an explicit, inspectable
  :class:`ExperimentPlan` of :class:`WorkUnit`\\ s — count, filter and
  shard the work *before* spending compute.
* :func:`run` executes a spec or plan through the shared
  :mod:`repro.runtime` batch layer (in-batch dedup, an optional result
  store, process-pool fan-out bit-identical to serial) and returns a
  uniform :class:`ResultSet` with tagged rows, metadata and the spec's
  SHA-256 provenance.

Example:
    >>> from repro.api import ExperimentSpec, plan, run
    >>> spec = (
    ...     ExperimentSpec.experiment("sweep")
    ...     .with_protocols("xmac")
    ...     .with_sweep("max_delay", [2.0, 4.0])
    ...     .with_solver(grid_points=30)
    ... )
    >>> plan(spec).count
    2
    >>> result = run(spec)
    >>> len(result.rows())
    2
"""

from repro.api.engine import run, runner_for
from repro.api.plan import ExperimentPlan, WorkUnit, plan
from repro.api.results import ResultRecord, ResultSet
from repro.api.spec import (
    WORKLOAD_KINDS,
    CampaignSettings,
    ExperimentSpec,
    RequirementOverrides,
    RuntimePolicy,
    SimulationSettings,
    SolverSettings,
    SweepAxis,
)

#: Aliases for callers that re-export ``plan``/``run`` under clearer names.
plan_experiment = plan
run_experiment = run

__all__ = [
    "WORKLOAD_KINDS",
    "CampaignSettings",
    "ExperimentPlan",
    "ExperimentSpec",
    "RequirementOverrides",
    "ResultRecord",
    "ResultSet",
    "RuntimePolicy",
    "SimulationSettings",
    "SolverSettings",
    "SweepAxis",
    "WorkUnit",
    "plan",
    "plan_experiment",
    "run",
    "run_experiment",
    "runner_for",
]
