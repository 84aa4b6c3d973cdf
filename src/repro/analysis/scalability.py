"""Scalability study.

The paper claims the framework is "scalable with the increase in the number
of nodes, as the players represent the optimization metrics instead of the
nodes".  Concretely: the game always has two players and the optimization
variables are the handful of MAC parameters, so the solve cost grows only
through the (cheap) evaluation of the closed-form traffic expressions, not
with the node count.  This module measures exactly that: wall-clock solve
time and solution values as the topology depth/density (hence node count)
grow.

The solves route through the :mod:`repro.runtime` batch runner; each task's
solve time is measured inside the worker, so the study can be fanned out
across processes without distorting the per-solve timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Type

from repro.core.requirements import ApplicationRequirements
from repro.network.topology import RingTopology
from repro.protocols.base import DutyCycledMACModel
from repro.runtime import BatchRunner, SolveTask
from repro.scenario import Scenario


@dataclass(frozen=True)
class ScalabilityRecord:
    """One point of the scalability study.

    Attributes:
        depth: Ring count ``D`` of the scenario.
        density: Neighbourhood size ``C`` of the scenario.
        node_count: Total number of nodes ``C * D^2``.
        solve_seconds: Wall-clock time to solve the complete game.
        energy_star: Agreed energy at the Nash bargaining point.
        delay_star: Agreed delay at the Nash bargaining point.
    """

    depth: int
    density: int
    node_count: float
    solve_seconds: float
    energy_star: float
    delay_star: float


def scalability_study(
    protocol_class: Type[DutyCycledMACModel],
    sizes: Iterable[Tuple[int, int]],
    requirements: ApplicationRequirements,
    sampling_rate: float = 1.0 / 3600.0,
    runner: Optional[BatchRunner] = None,
    **solver_options: object,
) -> List[ScalabilityRecord]:
    """Solve the game across a range of network sizes and time each solve.

    Args:
        protocol_class: Protocol model class to instantiate per size.
        sizes: Iterable of ``(depth, density)`` pairs.
        requirements: Application requirements applied to every size.
        sampling_rate: Application sampling rate used in every scenario.
        runner: Batch runner the solves are dispatched through.  Defaults to
            an uncached serial runner — caching would answer repeated sizes
            in zero time and falsify the timing study.
        solver_options: Extra options forwarded to the game solver.
    """
    runner = runner if runner is not None else BatchRunner(cache=None)
    sizes = [(int(depth), int(density)) for depth, density in sizes]
    tasks: List[SolveTask] = []
    scenarios: List[Scenario] = []
    for depth, density in sizes:
        scenario = Scenario(
            topology=RingTopology(depth=depth, density=density),
            sampling_rate=sampling_rate,
        )
        scenarios.append(scenario)
        tasks.append(
            SolveTask(
                model=protocol_class(scenario),
                requirements=requirements,
                solver_options=dict(solver_options),
            )
        )
    records: List[ScalabilityRecord] = []
    for (depth, density), scenario, outcome in zip(sizes, scenarios, runner.run(tasks)):
        if not outcome.ok:
            raise outcome.error
        records.append(
            ScalabilityRecord(
                depth=depth,
                density=density,
                node_count=scenario.topology.total_nodes(),
                solve_seconds=outcome.solve_seconds,
                energy_star=outcome.solution.energy_star,
                delay_star=outcome.solution.delay_star,
            )
        )
    return records
