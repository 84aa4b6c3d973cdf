"""One evaluation per game: (P1), (P2) and (P4) share their grid's model
values, and value every point through the model's batch methods."""

from __future__ import annotations

import collections
import math

import numpy as np
import pytest

from repro.core.bargaining import NashBargainingSolver
from repro.core.problems import GameEvaluations, NashBargainingProblem
from repro.core.tradeoff import EnergyDelayGame
from repro.exceptions import ConfigurationError
from repro.protocols.registry import create_protocol, protocol_class
from repro.scenarios import scenario_preset

GRID_POINTS = 24
GRID_METHODS = ("energy_many", "latency_many", "capacity_margin_many")
SCALAR_METHODS = ("system_energy", "system_latency", "capacity_margin")


def _spy_model(protocol: str):
    """A model of ``protocol`` counting the calls of each ``.many`` method
    that cover the full solver grid or one row, and of each scalar method."""
    base = protocol_class(protocol)

    def counting_many(name):
        def method(self, grid):
            if len(grid) == self.parameter_space.grid(GRID_POINTS).shape[0]:
                self.full_grid_calls[name] += 1
            elif len(grid) == 1:
                self.row_calls[name] += 1
            return getattr(base, name)(self, grid)

        return method

    def counting_scalar(name):
        def method(self, *args, **kwargs):
            self.scalar_calls[name] += 1
            return getattr(base, name)(self, *args, **kwargs)

        return method

    spies = {name: counting_many(name) for name in GRID_METHODS}
    spies.update({name: counting_scalar(name) for name in SCALAR_METHODS})
    spy = type(f"Spy{base.__name__}", (base,), spies)
    model = spy(scenario_preset("paper-default").scenario)
    model.full_grid_calls = collections.Counter()
    model.row_calls = collections.Counter()
    model.scalar_calls = collections.Counter()
    return model


@pytest.mark.parametrize("protocol", ["xmac", "lmac"])
def test_each_game_evaluates_its_grid_once(protocol):
    model = _spy_model(protocol)
    requirements = scenario_preset("paper-default").requirements()
    game = EnergyDelayGame(model, requirements, grid_points_per_dimension=GRID_POINTS)
    first = game.solve()
    assert model.full_grid_calls == {name: 1 for name in GRID_METHODS}
    # The memo dies with its game: the next game evaluates its grid again.
    second = game.solve()
    assert model.full_grid_calls == {name: 2 for name in GRID_METHODS}
    assert first == second


@pytest.mark.parametrize("protocol", ["xmac", "lmac"])
def test_a_game_values_every_point_through_batches(protocol):
    model = _spy_model(protocol)
    requirements = scenario_preset("paper-default").requirements()
    EnergyDelayGame(model, requirements, grid_points_per_dimension=GRID_POINTS).solve()
    # No scalar call: each problem values its reported point as a one-row
    # batch, and its outcome reads E, L and the margin there from the memo.
    assert model.scalar_calls == {}
    assert model.row_calls == {name: 3 for name in GRID_METHODS}


def test_a_game_solves_like_its_stages_called_alone():
    model = create_protocol("lmac", scenario_preset("high-rate").scenario)
    requirements = scenario_preset("high-rate").requirements()
    solver = NashBargainingSolver(grid_points_per_dimension=GRID_POINTS)
    energy = solver.solve_energy_problem(model, requirements)
    delay = solver.solve_delay_problem(model, requirements)
    bargaining = solver.solve_bargaining_problem(model, requirements, energy, delay)
    solution = solver.solve(model, requirements)
    assert (solution.energy_optimum, solution.delay_optimum) == (energy, delay)
    assert solution.bargaining == bargaining


def test_a_memo_serves_only_its_own_model():
    scenario = scenario_preset("paper-default").scenario
    requirements = scenario_preset("paper-default").requirements()
    solver = NashBargainingSolver(grid_points_per_dimension=GRID_POINTS)
    other = GameEvaluations(create_protocol("xmac", scenario))
    with pytest.raises(ConfigurationError):
        solver.solve_energy_problem(
            create_protocol("xmac", scenario), requirements, evaluations=other
        )


def test_p4_grid_objective_is_bit_identical_to_the_scalar_objective():
    model = create_protocol("lmac", scenario_preset("paper-default").scenario)
    grid = model.parameter_space.grid(40)
    energies, latencies = model.energy_many(grid), model.latency_many(grid)
    # At the grid's median E and L, the disagreement point leaves all but a
    # few dozen grid points past it on one metric or both, where the log
    # floor applies.
    problem = NashBargainingProblem(
        model,
        scenario_preset("paper-default").requirements(),
        disagreement_energy=float(np.median(energies)),
        disagreement_delay=float(np.median(latencies)),
    )
    energy_worst, delay_worst = problem.disagreement
    energy_floored = energies >= energy_worst
    delay_floored = latencies >= delay_worst
    assert energy_floored.any() and delay_floored.any()
    assert (~energy_floored & ~delay_floored).any()
    assert (energy_floored & delay_floored).any()
    # The reference: libm's log of each row's floored gains, from the
    # model's scalar methods.
    floor = NashBargainingProblem._LOG_FLOOR  # noqa: SLF001 - pinning the floor
    reference = np.array(
        [
            math.log(max(energy_worst - model.system_energy(row), floor * energy_worst))
            + math.log(max(delay_worst - model.system_latency(row), floor * delay_worst))
            for row in grid
        ]
    )
    assert problem.objective(grid).tobytes() == reference.tobytes()
