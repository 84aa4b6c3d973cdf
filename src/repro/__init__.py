"""repro — game-theoretic energy-delay balancing for duty-cycled MAC protocols.

Reproduction of Doudou, Barcelo-Ordinas, Djenouri, Garcia-Vidal and Badache,
"Game Theoretical Approach for Energy-Delay Balancing in Distributed
Duty-Cycled MAC Protocols of Wireless Networks" (PODC 2014, brief
announcement).

The package models the energy/end-to-end-delay trade-off of duty-cycled MAC
protocols in multi-hop wireless sensor networks as a two-player cooperative
bargaining game whose players are the performance metrics themselves, and
solves it with the Nash Bargaining Solution.

Quickstart::

    from repro import ApplicationRequirements, EnergyDelayGame
    from repro.protocols import XMACModel
    from repro.scenario import default_scenario

    model = XMACModel(default_scenario())
    requirements = ApplicationRequirements(energy_budget=0.06, max_delay=2.0)
    solution = EnergyDelayGame(model, requirements).solve()
    print(solution.energy_star, solution.delay_star)

Package layout:

* :mod:`repro.core` — the game formulation (P1/P2/P4, NBS, fairness).
* :mod:`repro.protocols` — X-MAC, DMAC, LMAC (and SCP-MAC) analytical models.
* :mod:`repro.network` — topology, traffic, radio and packet substrates.
* :mod:`repro.optimization` — the constrained solvers.
* :mod:`repro.simulation` — packet-level discrete-event simulator.
* :mod:`repro.runtime` — parallel executor policies, result identity, batch runner.
* :mod:`repro.scenarios` — named scenario presets.
* :mod:`repro.analysis` — model-vs-simulator validation and reporting.
* :mod:`repro.experiments` — the paper's evaluation grids.
* :mod:`repro.api` — the declarative experiment pipeline
  (``ExperimentSpec`` → ``plan`` → ``run`` → ``ResultSet``), the one front
  door of every workload: solves, requirement sweeps, the paper's two
  figures, the (scenario × protocol) suite, simulation checks and
  Monte-Carlo campaigns.
"""

from repro.core.requirements import ApplicationRequirements
from repro.core.results import (
    BargainingOutcome,
    GameSolution,
    OptimizationOutcome,
    TradeoffPoint,
)
from repro.core.tradeoff import EnergyDelayGame
from repro.exceptions import (
    BargainingError,
    ConfigurationError,
    InfeasibleProblemError,
    ReproError,
    SimulationError,
    SolverError,
    ValidationError,
)
from repro.runtime import (
    BatchRunner,
    ExecutorPolicy,
    SolveTask,
    TaskOutcome,
    build_runner,
    resolve_executor,
)
from repro.scenario import Scenario, default_scenario
from repro.scenarios import ScenarioPreset

# Imported last: repro.api builds on every layer above.
from repro.api import (
    ExperimentPlan,
    ExperimentSpec,
    ResultSet,
    WorkUnit,
    plan_experiment,
    run_experiment,
)

__version__ = "1.9.0"

__all__ = [
    "ApplicationRequirements",
    "ExperimentPlan",
    "ExperimentSpec",
    "ResultSet",
    "WorkUnit",
    "plan_experiment",
    "run_experiment",
    "BargainingOutcome",
    "EnergyDelayGame",
    "GameSolution",
    "OptimizationOutcome",
    "TradeoffPoint",
    "Scenario",
    "ScenarioPreset",
    "default_scenario",
    "BatchRunner",
    "ExecutorPolicy",
    "SolveTask",
    "TaskOutcome",
    "build_runner",
    "resolve_executor",
    "ReproError",
    "ConfigurationError",
    "InfeasibleProblemError",
    "SolverError",
    "BargainingError",
    "SimulationError",
    "ValidationError",
    "__version__",
]
