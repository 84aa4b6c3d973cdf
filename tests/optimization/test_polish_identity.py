"""Identity gate: the SLSQP polish against its memo-free wiring, bit for bit.

The production polish reads ``E(X)``, ``L(X)`` and the capacity margin
through each problem's per-point memo, and hands SciPy every margin as one
vector-valued inequality constraint.  Neither may move a bit.  The
reference here is the polish wired the plain way: the objective and each
margin are closures over the model's own methods (no memo), SciPy gets one
``{"type": "ineq"}`` dict per margin, and the start clip, the |f(start)|
scaling, the 1e30 penalty and the evaluation counter are the same.  Every
``SolverResult`` field must be equal, ``x`` byte for byte.

Production runs ``slsqp_solve`` on exactly the objective and constraints a
problem's public ``solve`` hands its solver.  Each problem is polished from
every local minimum of its grid, in order and on one problem object, as the
hybrid does, so the memo carries over from one start to the next.  P4 is
built from the P1/P2 outcomes, as in the bargaining solver.  Tier-1 runs
one cell per preset × (P1, P2, P4) plus a grid-infeasible cell through
``multistart_slsqp``; the full 96-cell matrix is ``slow``-marked
(``pytest -m slow``).
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

import numpy as np
import pytest

from repro.core.problems import (
    DelayMinimizationProblem,
    EnergyMinimizationProblem,
    NashBargainingProblem,
)
from repro.core.requirements import ApplicationRequirements
from repro.exceptions import InfeasibleProblemError, SolverError
from repro.optimization.constrained import multistart_slsqp, slsqp_solve
from repro.optimization.grid import grid_search
from repro.optimization.result import SolverResult
from repro.protocols.registry import create_protocol
from repro.scenarios import scenario_preset

GRID_POINTS = 60
PRESETS = (
    "paper-default",
    "dense-ring",
    "sparse-ring",
    "low-power",
    "high-rate",
    "sub-ghz",
    "legacy-bitradio",
    "bursty",
)
PROTOCOLS = ("xmac", "dmac", "lmac", "scpmac")
DELAY_FACTORS = (1.0, 1.5, 2.0)

MATRIX = [
    (preset, protocol, factor)
    for preset in PRESETS
    for protocol in PROTOCOLS
    for factor in DELAY_FACTORS
]
#: One cell per preset, cycling through protocols and delay factors.
FAST_SLICE = [
    (preset, PROTOCOLS[index % 4], DELAY_FACTORS[index % 3])
    for index, preset in enumerate(PRESETS)
]

Margin = Callable[[np.ndarray], float]


def _cell_id(cell: Tuple[str, str, float]) -> str:
    preset, protocol, factor = cell
    return f"{preset}-{protocol}-{factor:g}xLmax"


# ---------------------------------------------------------------------- #
# The reference: plain closures, one SciPy constraint per margin
# ---------------------------------------------------------------------- #


def _reference_violation(margins: Sequence[Margin], point: np.ndarray) -> float:
    worst = 0.0
    for margin in margins:
        value = float(margin(point))
        if not np.isfinite(value):
            return float("inf")
        worst = max(worst, -value)
    return worst


def reference_slsqp(
    objective: Callable[[np.ndarray], float],
    margins: Sequence[Margin],
    space,
    start: np.ndarray,
    maximize: bool,
    feasibility_tolerance: float = 1e-7,
) -> SolverResult:
    from scipy import optimize

    sign = -1.0 if maximize else 1.0
    start_point = space.clip(start)
    scale = abs(float(objective(start_point)))
    if not np.isfinite(scale) or scale == 0.0:
        scale = 1.0
    counter = {"count": 1}

    def safe_objective(point: np.ndarray) -> float:
        counter["count"] += 1
        value = float(objective(np.asarray(point, dtype=float)))
        if not np.isfinite(value):
            return 1e30
        return sign * value / scale

    constraints = [
        {"type": "ineq", "fun": (lambda point, m=m: float(m(np.asarray(point, dtype=float))))}
        for m in margins
    ]
    outcome = optimize.minimize(
        safe_objective,
        x0=np.asarray(start_point, dtype=float),
        method="SLSQP",
        bounds=space.bounds,
        constraints=constraints,
        options={"maxiter": 400, "ftol": 1e-12},
    )
    point = space.clip(np.asarray(outcome.x, dtype=float))
    violation = _reference_violation(margins, point)
    value = float(objective(point))
    if not np.isfinite(value):
        raise SolverError("SLSQP converged to a point with a non-finite objective")
    return SolverResult(
        x=point,
        value=value,
        feasible=violation <= feasibility_tolerance,
        method="slsqp",
        evaluations=counter["count"],
        message=str(outcome.message),
        constraint_violation=violation,
    )


def _minimizing(result: SolverResult, sign: float) -> SolverResult:
    return SolverResult(
        x=result.x,
        value=sign * result.value,
        feasible=result.feasible,
        method=result.method,
        constraint_violation=result.constraint_violation,
    )


def reference_multistart(objective, margins, space, maximize: bool) -> SolverResult:
    """The hybrid's 5 fixed + 6 seeded random starts, best result kept."""
    lower, upper = space.lower_bounds, space.upper_bounds
    span = upper - lower
    starts = [
        space.midpoint(),
        lower + 0.05 * span,
        upper - 0.05 * span,
        lower + 0.25 * span,
        upper - 0.25 * span,
        *space.random_points(6, seed=0),
    ]
    sign = -1.0 if maximize else 1.0
    best = None
    total = 0
    for start in starts:
        try:
            result = reference_slsqp(objective, margins, space, start, maximize)
        except SolverError:
            continue
        total += result.evaluations
        if best is None or _minimizing(result, sign).better_than(_minimizing(best, sign)):
            best = result
    assert best is not None
    return SolverResult(
        x=best.x,
        value=best.value,
        feasible=best.feasible,
        method="multistart-slsqp",
        evaluations=total,
        message=best.message,
        constraint_violation=best.constraint_violation,
    )


def _reference_wiring(model, requirements, name: str, disagreement=None):
    """``(objective, margins)`` of one problem, straight from the model."""
    if name == "P1":
        max_delay = requirements.max_delay
        return model.system_energy, [
            lambda x: max_delay - model.system_latency(x),
            model.capacity_margin,
        ]
    if name == "P2":
        budget = requirements.energy_budget
        return model.system_latency, [
            lambda x: budget - model.system_energy(x),
            model.capacity_margin,
        ]
    energy_worst, delay_worst = disagreement
    floor_energy = NashBargainingProblem._LOG_FLOOR * energy_worst
    floor_delay = NashBargainingProblem._LOG_FLOOR * delay_worst

    def objective(x: np.ndarray) -> float:
        energy_gain = energy_worst - model.system_energy(x)
        delay_gain = delay_worst - model.system_latency(x)
        return math.log(max(energy_gain, floor_energy)) + math.log(
            max(delay_gain, floor_delay)
        )

    budget = min(requirements.energy_budget, energy_worst)
    delay_cap = min(requirements.max_delay, delay_worst)
    return objective, [
        lambda x: budget - model.system_energy(x),
        lambda x: delay_cap - model.system_latency(x),
        model.capacity_margin,
    ]


# ---------------------------------------------------------------------- #
# Comparison
# ---------------------------------------------------------------------- #


def _outcome(run: Callable[[], SolverResult]):
    """The result (or ``None``) and every field of it, floats by their bits."""
    try:
        result = run()
    except SolverError as exc:
        return None, {"error": str(exc)}
    return result, {
        "x": result.x.tobytes(),
        "value": float(result.value).hex(),
        "feasible": result.feasible,
        "method": result.method,
        "evaluations": result.evaluations,
        "message": result.message,
        "constraint_violation": float(result.constraint_violation).hex(),
    }


def _comparing_solver(reference, label: str, compared: List[str]):
    """A solver for ``problem.solve`` that checks the polish from every start.

    It receives the exact objective and constraints production hands its
    solver, runs the grid, then polishes from each local minimum (or from
    the least-violating point, plus the multistart, when the grid has no
    feasible point) through both wirings.  Like the hybrid, it returns the
    best of the grid and the production results.
    """
    objective_ref, margins_ref = reference

    def solve(objective, space, constraints, maximize, **_options):
        grid = grid_search(
            objective, space, constraints, points_per_dimension=GRID_POINTS, maximize=maximize
        )
        candidates = []
        starts = list(grid.local_minima) if grid.feasible else [grid.x]
        for index, start in enumerate(starts):
            result, production = _outcome(
                lambda: slsqp_solve(objective, space, constraints, start=start, maximize=maximize)
            )
            _, expected = _outcome(
                lambda: reference_slsqp(objective_ref, margins_ref, space, start, maximize)
            )
            assert production == expected, f"{label}: polish from start {index} moved"
            compared.append(f"{label}/start{index}")
            candidates.append(result)
        if not grid.feasible:
            result, production = _outcome(
                lambda: multistart_slsqp(
                    objective, space, constraints, maximize=maximize, random_starts=6, seed=0
                )
            )
            _, expected = _outcome(
                lambda: reference_multistart(objective_ref, margins_ref, space, maximize)
            )
            assert production == expected, f"{label}: multistart moved"
            compared.append(f"{label}/multistart")
            candidates.append(result)
        sign = -1.0 if maximize else 1.0
        best = grid
        for candidate in candidates:
            if candidate is not None and _minimizing(candidate, sign).better_than(
                _minimizing(best, sign)
            ):
                best = candidate
        return best

    return solve


def _solve(problem, reference, label: str, compared: List[str]):
    """Run ``problem.solve`` through the comparing solver; ``None`` if infeasible."""
    try:
        return problem.solve(_comparing_solver(reference, label, compared))
    except InfeasibleProblemError:
        return None


def _check_game(preset_name: str, protocol: str, max_delay_factor: float) -> List[str]:
    preset = scenario_preset(preset_name)
    model = create_protocol(protocol, preset.scenario)
    requirements = ApplicationRequirements(
        energy_budget=preset.energy_budget,
        max_delay=preset.max_delay * max_delay_factor,
        sampling_rate=preset.scenario.sampling_rate,
    )
    label = f"{preset_name}/{protocol}/{max_delay_factor:g}xLmax"
    compared: List[str] = []
    energy_optimum = _solve(
        EnergyMinimizationProblem(model, requirements),
        _reference_wiring(model, requirements, "P1"),
        f"{label}/P1",
        compared,
    )
    delay_optimum = _solve(
        DelayMinimizationProblem(model, requirements),
        _reference_wiring(model, requirements, "P2"),
        f"{label}/P2",
        compared,
    )
    if energy_optimum is None or delay_optimum is None:
        return compared
    disagreement = (delay_optimum.point.energy, energy_optimum.point.delay)
    _solve(
        NashBargainingProblem(model, requirements, *disagreement),
        _reference_wiring(model, requirements, "P4", disagreement),
        f"{label}/P4",
        compared,
    )
    return compared


@pytest.mark.parametrize("cell", FAST_SLICE, ids=_cell_id)
def test_polish_is_bit_identical_to_the_memo_free_wiring(cell):
    compared = _check_game(*cell)
    assert any(entry.endswith("P4/start0") for entry in compared), compared


def test_grid_infeasible_cell_polish_and_multistart_are_bit_identical():
    """No grid point meets 5% of the preset's delay bound, so the hybrid
    polishes the least-violating point and runs the multistart too."""
    compared = _check_game("high-rate", "lmac", 0.05)
    assert "high-rate/lmac/0.05xLmax/P1/multistart" in compared, compared


@pytest.mark.slow
@pytest.mark.parametrize("cell", MATRIX, ids=_cell_id)
def test_full_matrix_polish_is_bit_identical(cell):
    _check_game(*cell)
