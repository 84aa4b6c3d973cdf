"""Integration tests: full game pipeline, model-vs-simulation, CLI."""

from __future__ import annotations

import numpy as np
import pytest

from finite_bargaining import BargainingGame, check_all_axioms, nash_bargaining_solution
from repro.analysis.validation import validate_protocol
from repro.cli import main as cli_main
from repro.core.requirements import ApplicationRequirements
from repro.core.tradeoff import EnergyDelayGame
from repro.network.topology import RingTopology
from repro.protocols import DMACModel, LMACModel, XMACModel
from repro.protocols.registry import paper_protocols
from repro.scenario import Scenario
from repro.simulation import SimulationConfig

FAST = {"grid_points_per_dimension": 40}


class TestFullGamePipeline:
    def test_all_paper_protocols_produce_consistent_solutions(self, small_scenario):
        requirements = ApplicationRequirements(
            energy_budget=0.06, max_delay=6.0, sampling_rate=small_scenario.sampling_rate
        )
        for model in paper_protocols(small_scenario).values():
            solution = EnergyDelayGame(model, requirements, **FAST).solve()
            assert solution.energy_best <= solution.energy_star <= solution.energy_worst * 1.001
            assert solution.delay_best <= solution.delay_star <= solution.delay_worst * 1.001
            assert abs(solution.bargaining.fairness_residual) < 0.15

    def test_continuous_nbs_agrees_with_discrete_nbs_on_sampled_frontier(self, xmac):
        """The (P4) solver and the generic finite-game NBS must agree, and the
        finite game's Nash point satisfies all four axioms."""
        requirements = ApplicationRequirements(energy_budget=0.06, max_delay=6.0)
        game = EnergyDelayGame(xmac, requirements, **FAST)
        solution = game.solve()

        # Build the discrete game from a dense sample of admissible points.
        space = xmac.parameter_space
        grid = np.linspace(space.lower_bounds[0], space.upper_bounds[0], 400)
        costs = []
        for value in grid:
            point = [float(value)]
            if not xmac.is_admissible(point):
                continue
            energy = xmac.system_energy(point)
            delay = xmac.system_latency(point)
            if energy <= solution.energy_worst and delay <= solution.delay_worst:
                costs.append((energy, delay))
        finite_game = BargainingGame.from_costs(
            costs, disagreement_costs=(solution.energy_worst, solution.delay_worst)
        )
        discrete = nash_bargaining_solution(finite_game)
        discrete_energy, discrete_delay = -discrete.payoff[0], -discrete.payoff[1]
        assert discrete_energy == pytest.approx(solution.energy_star, rel=0.05)
        assert discrete_delay == pytest.approx(solution.delay_star, rel=0.05)
        checks = check_all_axioms(finite_game)
        assert all(check.satisfied for check in checks.values()), checks

    def test_energy_ordering_of_protocols_at_delay_optimum(self, paper_scenario):
        """X-MAC spends the least energy when pushed to its fastest setting."""
        requirements = ApplicationRequirements(
            energy_budget=0.06, max_delay=6.0, sampling_rate=paper_scenario.sampling_rate
        )
        worst = {}
        for name, model in paper_protocols(paper_scenario).items():
            solution = EnergyDelayGame(model, requirements, **FAST).solve()
            worst[name] = solution.energy_worst
        assert worst["xmac"] < worst["dmac"]
        assert worst["xmac"] < worst["lmac"]


class TestModelAgainstSimulation:
    @pytest.mark.parametrize(
        "model_class, params",
        [
            (XMACModel, {"wakeup_interval": 0.4}),
            (DMACModel, {"frame_length": 1.0}),
            (LMACModel, None),
        ],
    )
    def test_analytical_model_matches_simulation(self, model_class, params):
        scenario = Scenario(topology=RingTopology(depth=4, density=6), sampling_rate=1.0 / 600.0)
        model = model_class(scenario)
        if params is None:
            params = {"slot_length": 0.02, "slot_count": float(model.min_slot_count)}
        report = validate_protocol(model, params, SimulationConfig(horizon=4000.0, seed=3))
        assert report.delivery_ratio > 0.95
        assert report.energy_error < 0.30, report.as_dict()
        assert report.delay_error < 0.50, report.as_dict()


class TestCLI:
    def test_protocols_command(self, capsys):
        assert cli_main(["protocols"]) == 0
        output = capsys.readouterr().out
        assert "xmac" in output and "lmac" in output

    def test_solve_command(self, capsys):
        code = cli_main(
            [
                "solve",
                "xmac",
                "--max-delay",
                "3.0",
                "--depth",
                "4",
                "--density",
                "6",
                "--sampling-period",
                "600",
                "--grid-points",
                "30",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "E_star" in output and "L_star" in output

    def test_sweep_command_parallel_matches_serial(self, capsys):
        common = [
            "sweep",
            "xmac",
            "--vary",
            "max-delay",
            "--values",
            "2.0",
            "4.0",
            "--depth",
            "4",
            "--density",
            "6",
            "--sampling-period",
            "600",
            "--grid-points",
            "25",
            "--no-cache",
        ]
        assert cli_main(common + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert cli_main(common + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        # Identical rows; only the trailing "# runtime:" line may differ.
        strip = lambda out: [l for l in out.splitlines() if not l.startswith("# runtime:")]
        assert strip(serial) == strip(parallel)
        assert "# runtime: serial[1]" in serial
        assert "# runtime: process[2]" in parallel

    def test_bad_workers_is_a_clean_error(self, capsys):
        code = cli_main(["figure1", "--workers", "-1"])
        assert code == 2
        assert "workers must be >= 0" in capsys.readouterr().err

    def test_unknown_protocol_is_a_clean_error(self, capsys):
        code = cli_main(["solve", "nosuchproto"])
        assert code == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_sweep_command_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code = cli_main(
            [
                "sweep",
                "xmac",
                "--vary",
                "max-delay",
                "--values",
                "2.0",
                "4.0",
                "--depth",
                "4",
                "--density",
                "6",
                "--sampling-period",
                "600",
                "--grid-points",
                "30",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        assert "E_star" in capsys.readouterr().out

    def test_validate_command(self, capsys):
        code = cli_main(
            [
                "validate",
                "xmac",
                "--depth",
                "3",
                "--density",
                "4",
                "--sampling-period",
                "300",
                "--horizon",
                "600",
            ]
        )
        assert code == 0
        assert "energy_error" in capsys.readouterr().out
