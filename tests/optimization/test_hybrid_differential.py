"""Differential gate: the hybrid solver against its multi-start SLSQP predecessor.

The reference is the hybrid as it was before it polished the grid's local
minima, rebuilt here on ``scipy.optimize`` (a test-only dependency): the
grid scan, an SLSQP polish of the grid's best point, and an SLSQP
multistart from 5 fixed + 6 seeded random starts on every solve, keeping
the best candidate.  Each SLSQP descent is wrapped as the library's polish
was until it became NumPy line searches: the objective divided by its
magnitude at the start, a non-finite value replaced by a 1e30 penalty, and
every margin in one vector-valued inequality constraint.  SciPy calls them
one point at a time, so the problems' batch functions are wrapped to take
one point as a one-row batch.  The problems are solved through their
public ``solve``, with each solver patched in for the hybrid it calls.

On every cell the hybrid must reach the same feasibility verdict, and its
objective may trail the reference's by at most 1e-9 relative.  The one
exception is a reference point with a negative constraint margin (inside
the solvers' 1e-7 feasibility tolerance): its edge over every truly
feasible point may reach 1e-7.

The matrix is 8 presets × 4 protocols × Lmax ×{1, 1.5, 2} × (P1, P2, P4) at
60 grid points per axis.  P4 is built from the *reference's* P1/P2 optima,
so both solvers face the same problem.  Tier-1 runs a slice plus the two
``legacy-bitradio``/``scpmac``/P1 cells where polishing the grid point
alone used to stop 1% short of the delay bound; the full matrix and a
seeded fuzz over requirements are ``slow``-marked (``pytest -m slow``).
The whole module skips where SciPy is not installed.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple
from unittest import mock

import numpy as np
import pytest

from grid_reference import _better, _violation
from repro.core.problems import (
    DelayMinimizationProblem,
    EnergyMinimizationProblem,
    NashBargainingProblem,
)
from repro.core.requirements import ApplicationRequirements
from repro.exceptions import InfeasibleProblemError, SolverError
from repro.optimization.grid import grid_search
from repro.optimization.hybrid import hybrid_solve
from repro.optimization.result import SolverResult
from repro.protocols.registry import create_protocol
from repro.scenarios import scenario_preset

optimize = pytest.importorskip("scipy.optimize")

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
#: Allowed relative objective gap behind the reference ...
TOLERANCE = 1e-9
#: ... and behind a reference point that violates a constraint slightly.
VIOLATING_TOLERANCE = 1e-7

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


def _cell_id(cell: Tuple[str, str, float]) -> str:
    preset, protocol, factor = cell
    return f"{preset}-{protocol}-{factor:g}xLmax"


def _at_point(function):
    """A batch function taking one point, as SciPy hands it, as a one-row batch."""
    return lambda point: float(function(np.asarray(point, dtype=float)[None, :])[0])


def slsqp(objective, space, constraints, start, maximize: bool) -> SolverResult:
    """One SLSQP descent from ``start``, wrapped as the library's polish was."""
    sign = -1.0 if maximize else 1.0
    objective, constraints = _at_point(objective), [_at_point(c) for c in constraints]
    start = space.clip(start)
    scale = abs(float(objective(start)))
    if not math.isfinite(scale) or scale == 0.0:
        scale = 1.0

    def scaled(point: np.ndarray) -> float:
        value = float(objective(np.asarray(point, dtype=float)))
        return sign * value / scale if math.isfinite(value) else 1e30

    def margins(point: np.ndarray) -> np.ndarray:
        point = np.asarray(point, dtype=float)
        return np.array([float(constraint(point)) for constraint in constraints])

    outcome = optimize.minimize(
        scaled,
        x0=start,
        method="SLSQP",
        bounds=space.bounds,
        constraints=[{"type": "ineq", "fun": margins}] if constraints else [],
        options={"maxiter": 400, "ftol": 1e-12},
    )
    point = space.clip(np.asarray(outcome.x, dtype=float))
    value = float(objective(point))
    if not math.isfinite(value):
        raise SolverError("SLSQP converged to a point with a non-finite objective")
    violation = _violation(constraints, point)
    return SolverResult(
        x=point,
        value=value,
        feasible=violation <= 1e-7,
        method="slsqp",
        constraint_violation=violation,
    )


def reference_solve(
    objective,
    space,
    constraints=(),
    maximize: bool = False,
    grid_points_per_dimension: int = GRID_POINTS,
) -> SolverResult:
    """Grid, SLSQP from the grid's best point, and an 11-start SLSQP multistart."""
    sign = -1.0 if maximize else 1.0
    lower, upper = space.lower_bounds, space.upper_bounds
    span = upper - lower
    starts = [
        space.midpoint(),
        lower + 0.05 * span,
        upper - 0.05 * span,
        lower + 0.25 * span,
        upper - 0.25 * span,
        *(lower + np.random.default_rng(0).uniform(0.0, 1.0, size=(6, space.dimension)) * span),
    ]
    candidates: List[SolverResult] = []
    try:
        grid = grid_search(
            objective,
            space,
            constraints,
            points_per_dimension=grid_points_per_dimension,
            maximize=maximize,
        )
        candidates.append(grid)
        starts.insert(0, grid.x)
    except SolverError:
        pass
    for start in starts:
        try:
            candidates.append(slsqp(objective, space, constraints, start, maximize))
        except SolverError:
            pass
    best: Optional[SolverResult] = None
    for candidate in candidates:
        if best is None or _better(_minimizing(candidate, sign), _minimizing(best, sign)):
            best = candidate
    assert best is not None
    return best


def _minimizing(result: SolverResult, sign: float) -> SolverResult:
    return SolverResult(
        x=result.x,
        value=sign * result.value,
        feasible=result.feasible,
        method=result.method,
        constraint_violation=result.constraint_violation,
    )


def _recording(solver, results: List[SolverResult]):
    """``solver`` that also appends every raw result it returns."""

    def run(*args, **kwargs):
        result = solver(*args, **kwargs)
        results.append(result)
        return result

    return run


def _solve(problem, solver) -> SolverResult:
    """Solve a problem through its public ``solve``, ``solver`` in place of
    the hybrid, and return the raw result."""
    results: List[SolverResult] = []
    with mock.patch("repro.core.problems.hybrid_solve", _recording(solver, results)):
        try:
            problem.solve(grid_points_per_dimension=GRID_POINTS)
        except InfeasibleProblemError:
            pass
    assert len(results) == 1
    return results[0]


def _assert_no_worse(label: str, reference: SolverResult, candidate: SolverResult, maximize: bool):
    assert candidate.feasible == reference.feasible, f"{label}: feasibility verdict changed"
    if not reference.feasible:
        return
    sign = -1.0 if maximize else 1.0
    gap = sign * (candidate.value - reference.value) / abs(reference.value)
    allowed = VIOLATING_TOLERANCE if reference.constraint_violation > 0 else TOLERANCE
    assert gap <= allowed, (
        f"{label}: hybrid objective {candidate.value!r} trails the SLSQP "
        f"reference {reference.value!r} by {gap:.3g} relative (allowed {allowed:g}); "
        f"x={candidate.x.tolist()} vs {reference.x.tolist()}"
    )


def _check_game(
    preset_name: str, protocol: str, energy_budget: float, max_delay: float
) -> None:
    """P1, P2 and P4 of one game, each solved by both solvers."""
    preset = scenario_preset(preset_name)
    model = create_protocol(protocol, preset.scenario)
    requirements = ApplicationRequirements(
        energy_budget=energy_budget,
        max_delay=max_delay,
        sampling_rate=preset.scenario.sampling_rate,
    )
    label = f"{preset_name}/{protocol}/Ebudget={energy_budget!r}/Lmax={max_delay!r}"
    references = {}
    for name, problem in (
        ("P1", EnergyMinimizationProblem(model, requirements)),
        ("P2", DelayMinimizationProblem(model, requirements)),
    ):
        references[name] = _solve(problem, reference_solve)
        _assert_no_worse(f"{label}/{name}", references[name], _solve(problem, hybrid_solve), False)
    if not (references["P1"].feasible and references["P2"].feasible):
        return
    bargaining = NashBargainingProblem(
        model,
        requirements,
        disagreement_energy=model.system_energy(references["P2"].x),
        disagreement_delay=model.system_latency(references["P1"].x),
    )
    _assert_no_worse(
        f"{label}/P4",
        _solve(bargaining, reference_solve),
        _solve(bargaining, hybrid_solve),
        True,
    )


def _check_cell(cell: Tuple[str, str, float]) -> None:
    preset_name, protocol, factor = cell
    preset = scenario_preset(preset_name)
    _check_game(preset_name, protocol, preset.energy_budget, preset.max_delay * factor)


@pytest.mark.parametrize("cell", FAST_SLICE, ids=_cell_id)
def test_hybrid_matches_multistart_reference(cell):
    _check_cell(cell)


@pytest.mark.parametrize("factor", [1.5, 2.0])
def test_legacy_bitradio_scpmac_p1_reaches_the_delay_bound(factor):
    """The cell blind multistart used to rescue: the energy optimum sits on
    the delay bound between two grid points, and an unscaled polish of the
    grid point stopped at once on the 1e-5 J/s objective."""
    preset = scenario_preset("legacy-bitradio")
    model = create_protocol("scpmac", preset.scenario)
    requirements = ApplicationRequirements(
        energy_budget=preset.energy_budget,
        max_delay=preset.max_delay * factor,
        sampling_rate=preset.scenario.sampling_rate,
    )
    problem = EnergyMinimizationProblem(model, requirements)
    reference = _solve(problem, reference_solve)
    hybrid = _solve(problem, hybrid_solve)
    _assert_no_worse(f"legacy-bitradio/scpmac/{factor:g}xLmax/P1", reference, hybrid, False)
    assert model.system_latency(hybrid.x) == pytest.approx(requirements.max_delay, rel=1e-6)


@pytest.mark.slow
@pytest.mark.parametrize("cell", MATRIX, ids=_cell_id)
def test_full_matrix_matches_multistart_reference(cell):
    _check_cell(cell)


@pytest.mark.slow
@pytest.mark.parametrize("case", range(48))
def test_fuzzed_requirements_match_multistart_reference(case):
    """Seeded requirements from well inside to well outside each preset's
    feasible region, so infeasibility verdicts are exercised too."""
    rng = random.Random(1000 + case)
    preset_name = rng.choice(PRESETS)
    protocol = rng.choice(PROTOCOLS)
    preset = scenario_preset(preset_name)
    _check_game(
        preset_name,
        protocol,
        preset.energy_budget * rng.uniform(0.2, 2.0),
        preset.max_delay * rng.uniform(0.1, 3.0),
    )
