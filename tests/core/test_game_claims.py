"""The paper's game claims, checked for every built-in protocol.

Section 2 of the paper plays one game per protocol: (P1) gives the energy
player's best value ``Ebest`` under the delay bound, (P2) the delay
player's best value ``Lbest`` under the energy budget, and (P4) the Nash
bargaining agreement ``(E*, L*)`` against the disagreement point
``(Eworst, Lworst)``.  The tests below check, for each protocol model, that
the numerical solutions have the properties the paper relies on: each
optimum meets its requirement and is no worse than any admissible point of
a grid finer than the solver's, a tight requirement binds, the optima
trade off monotonically, and the agreement maximises the Nash product and
satisfies Pareto optimality, scale invariance and independence of
irrelevant alternatives on the continuous game.
"""

from __future__ import annotations

import pytest

from repro.core.bargaining import NashBargainingSolver
from repro.core.problems import NashBargainingProblem
from repro.core.tradeoff import EnergyDelayGame
from repro.protocols.registry import available_protocols, create_protocol

SOLVER_OPTIONS = {"grid_points_per_dimension": 40}
#: Points per dimension of the grid the solutions are checked against: finer
#: than the solver's and not a refinement of it, so no point is shared.
CHECK_POINTS = {1: 997, 2: 97}
#: Relative slack of a solver optimum against a grid point.
RELATIVE = 1e-9
#: The solver accepts a point whose constraint margins fall short by this much.
FEASIBILITY = 1e-7

PROTOCOLS = pytest.mark.parametrize("protocol", available_protocols())


@pytest.fixture
def model(protocol, small_scenario):
    """The protocol model of the test's ``protocol`` on the small scenario."""
    return create_protocol(protocol, small_scenario)


def check_grid(model):
    """The check grid with ``E``, ``L`` and the capacity margin of each row."""
    space = model.parameter_space
    grid = space.grid(CHECK_POINTS[space.dimension])
    return (
        grid,
        model.energy_many(grid),
        model.latency_many(grid),
        model.capacity_margin_many(grid),
    )


def rescaled(model, energy_scale, delay_scale):
    """``model`` with ``E(X)`` and ``L(X)`` multiplied by the given factors."""
    base = type(model)

    class Rescaled(base):
        def system_energy(self, params):
            return energy_scale * base.system_energy(self, params)

        def energy_many(self, grid):
            return energy_scale * base.energy_many(self, grid)

        def system_latency(self, params):
            return delay_scale * base.system_latency(self, params)

        def latency_many(self, grid):
            return delay_scale * base.latency_many(self, grid)

    return Rescaled(model.scenario)


@PROTOCOLS
class TestSingleObjectiveOptima:
    def test_energy_optimum_meets_the_delay_bound(self, model, requirements):
        outcome = NashBargainingSolver(**SOLVER_OPTIONS).solve_energy_problem(model, requirements)
        assert outcome.feasible
        assert outcome.point.delay <= requirements.max_delay + FEASIBILITY
        assert model.is_admissible(outcome.point.parameters, tolerance=FEASIBILITY)

    def test_delay_optimum_meets_the_energy_budget(self, model, requirements):
        outcome = NashBargainingSolver(**SOLVER_OPTIONS).solve_delay_problem(model, requirements)
        assert outcome.feasible
        assert outcome.point.energy <= requirements.energy_budget + FEASIBILITY
        assert model.is_admissible(outcome.point.parameters, tolerance=FEASIBILITY)

    def test_energy_optimum_is_no_worse_than_any_admissible_grid_point(self, model, requirements):
        outcome = NashBargainingSolver(**SOLVER_OPTIONS).solve_energy_problem(model, requirements)
        _, energy, latency, capacity = check_grid(model)
        feasible = (capacity >= 0.0) & (latency <= requirements.max_delay)
        assert feasible.any()
        assert outcome.point.energy <= energy[feasible].min() * (1.0 + RELATIVE)

    def test_delay_optimum_is_no_worse_than_any_admissible_grid_point(self, model, requirements):
        outcome = NashBargainingSolver(**SOLVER_OPTIONS).solve_delay_problem(model, requirements)
        _, energy, latency, capacity = check_grid(model)
        feasible = (capacity >= 0.0) & (energy <= requirements.energy_budget)
        assert feasible.any()
        assert outcome.point.delay <= latency[feasible].min() * (1.0 + RELATIVE)

    def test_tight_delay_bound_binds_at_the_energy_optimum(self, model, requirements):
        tight = requirements.with_max_delay(0.8)
        outcome = NashBargainingSolver(**SOLVER_OPTIONS).solve_energy_problem(model, tight)
        assert outcome.binding_constraint == "delay-bound"
        assert outcome.point.delay == pytest.approx(tight.max_delay, rel=1e-6)

    def test_tight_energy_budget_binds_at_the_delay_optimum(self, model, requirements):
        tight = requirements.with_energy_budget(0.002)
        outcome = NashBargainingSolver(**SOLVER_OPTIONS).solve_delay_problem(model, tight)
        assert outcome.binding_constraint == "energy-budget"
        assert outcome.point.energy == pytest.approx(tight.energy_budget, rel=1e-6)

    def test_energy_optimum_falls_as_the_delay_bound_loosens(self, model, requirements):
        solver = NashBargainingSolver(**SOLVER_OPTIONS)
        energies = [
            solver.solve_energy_problem(model, requirements.with_max_delay(bound)).point.energy
            for bound in (0.8, 2.0, 4.0, 6.0)
        ]
        for tighter, looser in zip(energies, energies[1:]):
            assert looser <= tighter * (1.0 + RELATIVE)
        assert energies[-1] < energies[0]

    def test_delay_optimum_falls_as_the_energy_budget_grows(self, model, requirements):
        solver = NashBargainingSolver(**SOLVER_OPTIONS)
        delays = [
            solver.solve_delay_problem(model, requirements.with_energy_budget(budget)).point.delay
            for budget in (0.002, 0.01, 0.05)
        ]
        for tighter, looser in zip(delays, delays[1:]):
            assert looser <= tighter * (1.0 + RELATIVE)
        assert delays[-1] < delays[0]

    def test_the_two_optima_conflict(self, model, requirements):
        """Each player's optimum is the other's worst point, so there is
        something to bargain over: ``Ebest < Eworst`` and ``Lbest < Lworst``."""
        solution = EnergyDelayGame(model, requirements, **SOLVER_OPTIONS).solve()
        assert solution.energy_best < solution.energy_worst
        assert solution.delay_best < solution.delay_worst


@PROTOCOLS
class TestNashAgreement:
    def test_agreement_gains_for_both_players(self, model, requirements):
        solution = EnergyDelayGame(model, requirements, **SOLVER_OPTIONS).solve()
        bargaining = solution.bargaining
        assert bargaining.energy_gain > 0.0 and bargaining.delay_gain > 0.0
        assert bargaining.nash_product == pytest.approx(
            bargaining.energy_gain * bargaining.delay_gain, rel=1e-12
        )
        assert solution.energy_star <= requirements.energy_budget + FEASIBILITY
        assert solution.delay_star <= requirements.max_delay + FEASIBILITY
        assert model.is_admissible(bargaining.point.parameters, tolerance=FEASIBILITY)

    def test_agreement_maximises_the_nash_product_over_a_finer_grid(self, model, requirements):
        bargaining = EnergyDelayGame(model, requirements, **SOLVER_OPTIONS).solve().bargaining
        _, energy, latency, capacity = check_grid(model)
        worst_energy, worst_delay = bargaining.disagreement_energy, bargaining.disagreement_delay
        feasible = (
            (capacity >= 0.0)
            & (energy <= min(requirements.energy_budget, worst_energy))
            & (latency <= min(requirements.max_delay, worst_delay))
        )
        products = (worst_energy - energy[feasible]) * (worst_delay - latency[feasible])
        assert bargaining.nash_product >= products.max() * (1.0 - RELATIVE)

    def test_agreement_is_pareto_optimal_over_a_finer_grid(self, model, requirements):
        """No admissible point is cheaper and faster than ``(E*, L*)``."""
        solution = EnergyDelayGame(model, requirements, **SOLVER_OPTIONS).solve()
        _, energy, latency, capacity = check_grid(model)
        dominating = (
            (capacity >= 0.0)
            & (energy < solution.energy_star * (1.0 - RELATIVE))
            & (latency < solution.delay_star * (1.0 - RELATIVE))
        )
        assert not dominating.any()

    def test_agreement_is_invariant_to_rescaling_either_metric(self, model, requirements):
        """Scale invariance: measuring ``E`` and ``L`` in other units (the
        requirements with them) moves the agreement's values with the units
        and leaves its parameters where they were.  Powers of two keep every
        comparison of the rescaled game exact."""
        energy_scale, delay_scale = 2.0**10, 2.0**-4
        solution = EnergyDelayGame(model, requirements, **SOLVER_OPTIONS).solve()
        scaled_requirements = requirements.with_energy_budget(
            requirements.energy_budget * energy_scale
        ).with_max_delay(requirements.max_delay * delay_scale)
        scaled = EnergyDelayGame(
            rescaled(model, energy_scale, delay_scale), scaled_requirements, **SOLVER_OPTIONS
        ).solve()
        assert scaled.energy_star / energy_scale == pytest.approx(solution.energy_star, rel=1e-6)
        assert scaled.delay_star / delay_scale == pytest.approx(solution.delay_star, rel=1e-6)
        assert scaled.bargaining.point.parameters == pytest.approx(
            solution.bargaining.point.parameters, rel=1e-6
        )

    def test_agreement_is_independent_of_irrelevant_alternatives(self, model, requirements):
        """Tightening the requirements halfway towards ``(E*, L*)`` removes
        alternatives but keeps the agreement feasible, so against the same
        disagreement point (P4) agrees on the same point."""
        bargaining = EnergyDelayGame(model, requirements, **SOLVER_OPTIONS).solve().bargaining
        agreement = bargaining.point
        worst_energy, worst_delay = bargaining.disagreement_energy, bargaining.disagreement_delay
        budget = 0.5 * (agreement.energy + min(requirements.energy_budget, worst_energy))
        delay_cap = 0.5 * (agreement.delay + min(requirements.max_delay, worst_delay))
        shrunk = NashBargainingProblem(
            model,
            requirements.with_energy_budget(budget).with_max_delay(delay_cap),
            disagreement_energy=worst_energy,
            disagreement_delay=worst_delay,
        )
        point, _ = shrunk.solve(**SOLVER_OPTIONS)
        assert point.energy == pytest.approx(agreement.energy, rel=1e-6)
        assert point.delay == pytest.approx(agreement.delay, rel=1e-6)
        assert point.parameters == pytest.approx(agreement.parameters, rel=1e-6)
