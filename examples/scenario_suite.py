"""Scenario suite: the bargaining game across many environments at once.

Run with::

    python examples/scenario_suite.py

The script runs every (scenario × protocol) pair of the scenario library as
one ``suite`` spec on a process pool, prints the resulting grid of Nash
bargaining agreements, and then shows the extension point: registering a
deployment-specific scenario preset and running a suite over it.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.api import ExperimentSpec, plan, run
from repro.network.topology import RingTopology
from repro.scenario import Scenario
from repro.scenarios import (
    ScenarioPreset,
    register_scenario_preset,
    scenario_presets,
    unregister_scenario_preset,
)


def run_library_suite() -> None:
    """Every registered scenario × every protocol, on 4 worker processes."""
    spec = (
        ExperimentSpec.experiment("suite")
        .with_solver(grid_points=40)  # coarse grid: the SLSQP polish refines it
        .with_runtime(workers=4)
    )
    suite_plan = plan(spec)
    print(
        f"Running {len(suite_plan.scenario_names)} scenarios × "
        f"{len(suite_plan.protocol_names)} protocols = {suite_plan.count} games ..."
    )
    result = run(suite_plan)
    print(format_table(result.rows()))
    print(f"runner: {result.telemetry['runner']}; "
          f"{len(result.ok_records)}/{len(result)} pairs feasible")


def run_custom_preset() -> None:
    """Register a deployment-specific preset and run a suite over it."""
    preset = ScenarioPreset(
        name="greenhouse",
        title="Greenhouse monitoring (3 rings, damp sub-GHz channel)",
        description=(
            "A small, dense indoor deployment sampled once per minute; "
            "short paths keep latency low even with long wake-up intervals."
        ),
        scenario=Scenario(
            topology=RingTopology(depth=3, density=10),
            sampling_rate=1.0 / 60.0,
        ),
        energy_budget=0.08,
        max_delay=2.0,
        tags=("example", "custom"),
    )
    register_scenario_preset(preset)
    try:
        spec = (
            ExperimentSpec.experiment("suite")
            .with_scenarios("greenhouse")
            .with_protocols("xmac", "dmac")
            .with_solver(grid_points=40)
        )
        result = run(spec)
        print()
        print("Custom preset:")
        print(format_table(result.rows()))
    finally:
        unregister_scenario_preset("greenhouse")


def main() -> None:
    print(f"Scenario library: {', '.join(p.name for p in scenario_presets())}")
    print()
    run_library_suite()
    run_custom_preset()


if __name__ == "__main__":
    main()
