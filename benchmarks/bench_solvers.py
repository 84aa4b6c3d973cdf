"""Solver ablation: grid search vs the hybrid default (grid + line-search polish).

docs/paper_map.md calls out the solver as a substitution (the paper only says
"convex programming"), so this bench checks that the choice does not matter:
both land on the same (P1) optimum for every protocol, and the hybrid is
never worse than its grid.
"""

from __future__ import annotations

import time
from unittest import mock

import pytest

from benchmarks.conftest import assert_speedup_if_required, print_series
from repro.core.problems import EnergyMinimizationProblem
from repro.core.requirements import ApplicationRequirements
from repro.optimization.grid import grid_search
from repro.optimization.hybrid import hybrid_solve
from repro.protocols.registry import available_protocols, create_protocol, paper_protocols
from repro.runtime import BatchRunner, SolveTask, build_runner
from repro.scenario import Scenario
from repro.network.topology import RingTopology

REQUIREMENTS = ApplicationRequirements(energy_budget=0.06, max_delay=4.0)
SCENARIO = Scenario(topology=RingTopology(depth=5, density=8), sampling_rate=1.0 / 3600.0)

SOLVERS = {
    "grid": lambda *args, **kwargs: grid_search(*args, points_per_dimension=160, **kwargs),
    "hybrid": lambda *args, **kwargs: hybrid_solve(*args, grid_points_per_dimension=80, **kwargs),
}


def _solve_p1_with_every_solver():
    rows = []
    results = {}
    for name, model in paper_protocols(SCENARIO).items():
        problem = EnergyMinimizationProblem(model, REQUIREMENTS)
        per_protocol = {}
        for solver_name, solver in SOLVERS.items():
            # The problems solve with the hybrid; patch each solver in its place.
            with mock.patch("repro.core.problems.hybrid_solve", solver):
                outcome = problem.solve()
            per_protocol[solver_name] = outcome
            rows.append(
                {
                    "protocol": model.name,
                    "solver": solver_name,
                    "E_best [J/s]": outcome.point.energy,
                    "L_worst [ms]": outcome.point.delay * 1000.0,
                    "evaluations": outcome.evaluations,
                }
            )
        results[name] = per_protocol
    return rows, results


def test_solver_ablation_on_energy_minimization(benchmark):
    rows, results = benchmark.pedantic(_solve_p1_with_every_solver, rounds=1, iterations=1)
    print_series("Solver ablation on (P1)", rows)
    for protocol, outcomes in results.items():
        energies = {name: outcome.point.energy for name, outcome in outcomes.items()}
        reference = energies["hybrid"]
        # The pure grid is quantized to its resolution; a few percent of
        # disagreement with the polished optimum is expected and acceptable.
        assert energies["grid"] == pytest.approx(reference, rel=0.05), protocol
        # The hybrid must be at least as good as its grid.
        assert reference <= min(energies.values()) * (1 + 1e-9), protocol


def _full_game_tasks() -> list:
    """One complete game solve per (protocol, delay bound): a 12-task grid."""
    tasks = []
    for name in available_protocols():
        model = create_protocol(name, SCENARIO)
        for max_delay in (2.0, 4.0, 6.0):
            tasks.append(
                SolveTask(
                    model=model,
                    requirements=REQUIREMENTS.with_max_delay(max_delay),
                    solver_options={"grid_points_per_dimension": 60},
                    tag=max_delay,
                )
            )
    return tasks


def test_batched_game_solves_parallel_speedup(benchmark, bench_workers):
    """Serial vs process-pool wall clock for a (protocol × Lmax) solve grid,
    with exact equality of every outcome."""
    tasks = _full_game_tasks()

    started = time.perf_counter()
    serial = BatchRunner(cache=None).run(tasks)
    serial_seconds = time.perf_counter() - started

    runner = build_runner(workers=bench_workers, use_cache=False)
    started = time.perf_counter()
    parallel = benchmark.pedantic(runner.run, args=(tasks,), rounds=1, iterations=1)
    parallel_seconds = time.perf_counter() - started

    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    print_series(
        "Batched game solves: serial vs parallel",
        [
            {"mode": "serial[1]", "seconds": serial_seconds, "speedup": 1.0},
            {
                "mode": f"process[{bench_workers}]",
                "seconds": parallel_seconds,
                "speedup": speedup,
            },
        ],
    )
    assert [outcome.ok for outcome in serial] == [outcome.ok for outcome in parallel]
    assert [outcome.solution.as_dict() for outcome in serial if outcome.ok] == [
        outcome.solution.as_dict() for outcome in parallel if outcome.ok
    ]
    assert_speedup_if_required(speedup)
