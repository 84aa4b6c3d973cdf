"""CLI `run` subcommand: exit codes and error paths.

A bad spec must exit nonzero with a one-line ``error:`` message on stderr —
never a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import EXIT_ERROR, EXIT_NOT_WARM, EXIT_OK, main as cli_main


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


GOOD_SOLVE = {
    "kind": "solve",
    "scenario": {"depth": 4, "density": 6, "sampling_period": 600.0},
    "protocols": ["xmac"],
    "solver": {"grid_points": 20},
}

#: A scenario whose sampling period (5 ms) is below X-MAC's smallest
#: wake-up interval (10 ms): the model's parameter box is empty.
TINY_PERIOD = {"depth": 3, "density": 4, "sampling_period": 0.005}


class TestRunHappyPath:
    def test_solve_spec_runs(self, capsys, tmp_path):
        assert cli_main(["run", write_spec(tmp_path, GOOD_SOLVE)]) == 0
        out = capsys.readouterr().out
        assert "E_star" in out
        assert "sha256" in out

    def test_plan_only_does_not_solve(self, capsys, tmp_path):
        spec = dict(GOOD_SOLVE, solver={"grid_points": 2000})  # huge grid: would be slow
        assert cli_main(["run", write_spec(tmp_path, spec), "--plan-only"]) == 0
        out = capsys.readouterr().out
        assert "grid_points" in out
        assert "E_star" not in out

    def test_csv_and_out_exports(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "result.json"
        code = cli_main(
            [
                "run",
                write_spec(tmp_path, GOOD_SOLVE),
                "--csv",
                str(csv_path),
                "--out",
                str(json_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == "repro.api.resultset"

    def test_workers_override_is_reported(self, capsys, tmp_path):
        spec = {
            "kind": "sweep",
            "scenario": {"depth": 4, "density": 6, "sampling_period": 600.0},
            "protocols": ["xmac"],
            "sweep": {"parameter": "max_delay", "values": [2.0, 4.0]},
            "solver": {"grid_points": 15},
        }
        path = write_spec(tmp_path, spec)
        assert cli_main(["run", path, "--workers", "2", "--no-cache"]) == 0
        assert "# runtime: process[2]" in capsys.readouterr().out

    def test_shard_runs_a_subset(self, capsys, tmp_path):
        spec = {
            "kind": "sweep",
            "scenario": {"depth": 4, "density": 6, "sampling_period": 600.0},
            "protocols": ["xmac"],
            "sweep": {"parameter": "max_delay", "values": [2.0, 4.0, 6.0]},
            "solver": {"grid_points": 15},
        }
        path = write_spec(tmp_path, spec)
        assert cli_main(["run", path, "--shard", "0/2", "--plan-only"]) == 0
        out = capsys.readouterr().out
        assert "2 unit(s)" in out


class TestRunErrorPaths:
    def assert_clean_error(self, capsys, argv, match):
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert match in captured.err
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_missing_spec_file(self, capsys, tmp_path):
        self.assert_clean_error(
            capsys, ["run", str(tmp_path / "nope.json")], "spec file not found"
        )

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        self.assert_clean_error(capsys, ["run", str(path)], "invalid JSON")

    def test_unknown_workload_kind(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "frobnicate"})
        self.assert_clean_error(capsys, ["run", path], "unknown workload kind")

    def test_unknown_protocol(self, capsys, tmp_path):
        path = write_spec(tmp_path, dict(GOOD_SOLVE, protocols=["nosuchmac"]))
        self.assert_clean_error(capsys, ["run", path], "unknown protocol")

    @pytest.mark.parametrize(
        "density, message",
        [
            (3, "ring deployment of depth 3, density 3, seed 1 produced depth 5; "
                "raise the density"),
            (2, "ring deployment of depth 3, density 2, seed 1 is disconnected; "
                "raise the density"),
        ],
        ids=["too-deep", "disconnected"],
    )
    def test_too_sparse_validate_scenario_says_what_to_raise(
        self, capsys, tmp_path, density, message
    ):
        # Only the density is a spec's to change: from density 4 on, every
        # ring of a depth-3 deployment reaches the ring inward.
        spec = {
            "kind": "validate",
            "scenario": {"depth": 3, "density": density},
            "protocols": ["xmac"],
            "solver": {"grid_points": 16},
        }
        code = cli_main(["run", write_spec(tmp_path, spec), "--no-cache"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_infeasible_solve_spec(self, capsys, tmp_path):
        infeasible = dict(
            GOOD_SOLVE,
            requirements={"energy_budget": 1e-9, "max_delay": 1e-3},
            solver={"grid_points": 10},
        )
        path = write_spec(tmp_path, infeasible)
        code = cli_main(["run", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_non_finite_number(self, capsys, tmp_path):
        # Python's json reads Infinity; a validate spec with an infinite
        # horizon would otherwise simulate forever.
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "validate", "simulation": {"horizon": Infinity}}')
        self.assert_clean_error(
            capsys, ["run", str(path)], "simulation.horizon must be finite"
        )

    def test_bad_shard_argument(self, capsys, tmp_path):
        path = write_spec(tmp_path, GOOD_SOLVE)
        self.assert_clean_error(capsys, ["run", path, "--shard", "half"], "--shard")

    def test_unsupported_suffix(self, capsys, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("kind: solve")
        self.assert_clean_error(capsys, ["run", str(path)], "unsupported spec file type")

    def test_empty_protocol_parameter_box(self, capsys, tmp_path):
        # A sampling period below X-MAC's smallest wake-up interval leaves
        # the model no admissible parameter: a named error, not a traceback.
        path = write_spec(tmp_path, dict(GOOD_SOLVE, scenario=TINY_PERIOD))
        self.assert_clean_error(
            capsys, ["run", path], "X-MAC wake-up interval bounds are inconsistent"
        )

    def test_bad_workers_override(self, capsys, tmp_path):
        path = write_spec(tmp_path, GOOD_SOLVE)
        self.assert_clean_error(
            capsys, ["run", path, "--workers", "-2"], "workers must be >= 0"
        )

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("solver", "method", "adaptive"),
            ("solver", "coarse_points", 11),
            ("solver", "bogus", 1),
            ("runtime", "sim_engine", "batched"),
            ("runtime", "solver_method", "exhaustive"),
            ("runtime", "mode", "thread"),
            ("runtime", "chunk_size", 4),
            ("solver", "vectorize", False),
            ("solver", "random_starts", 6),
            ("solver", "seed", 0),
            ("solver", "feasibility_tolerance", 1e-3),
        ],
    )
    def test_unknown_section_key(self, capsys, tmp_path, section, key, value):
        # Removed knobs (and any other unknown key) fail at parse time,
        # naming the key — never later, inside the solver.
        spec = dict(GOOD_SOLVE)
        spec[section] = dict(spec.get(section, {}), **{key: value})
        self.assert_clean_error(
            capsys,
            ["run", write_spec(tmp_path, spec)],
            f"unknown {section} key(s): {key}",
        )

    @pytest.mark.parametrize(
        "patch, field",
        [
            ({"solver": {"grid_points": "abc"}}, "solver.grid_points"),
            ({"solver": {"grid_points": 1}}, "solver.grid_points"),
            ({"runtime": {"workers": [1]}}, "runtime.workers"),
            ({"kind": "campaign", "campaign": {"replications": "x"}}, "campaign.replications"),
            ({"kind": "suite", "scenarios": 5}, "scenarios"),
            ({"scenario": {"depth": "deep"}}, "scenario.depth"),
            # Refused, never inverted or truncated.
            ({"runtime": {"cache": "false"}}, "runtime.cache"),
            ({"runtime": {"cache": 0}}, "runtime.cache"),
            ({"solver": {"grid_points": 30.9}}, "solver.grid_points"),
            ({"solver": {"grid_points": True}}, "solver.grid_points"),
            ({"solver": {"grid_points": "40"}}, "solver.grid_points"),
            ({"kind": "validate", "simulation": {"seed": 1.5}}, "simulation.seed"),
            ({"kind": "campaign", "campaign": {"replications": 2.9}}, "campaign.replications"),
            ({"kind": "campaign", "campaign": {"replications": True}}, "campaign.replications"),
            ({"runtime": {"workers": 2.7}}, "runtime.workers"),
            ({"scenario": {"depth": 4.5}}, "scenario.depth"),
            ({"name": ["x"]}, "name"),
            # Name lists take strings only, never str() of another value.
            ({"protocols": [1e-300]}, "protocols[0] must be a string"),
            ({"protocols": ["xmac", True]}, "protocols[1] must be a string"),
            ({"kind": "suite", "scenarios": [["paper-default"]]}, "scenarios[0] must be a string"),
            # NumPy would refuse it only inside the run, with a traceback.
            (
                {"kind": "validate", "simulation": {"seed": -1, "horizon": 300}},
                "simulation.seed must be >= 0, got -1",
            ),
        ],
    )
    def test_malformed_value(self, capsys, tmp_path, patch, field):
        spec = dict(GOOD_SOLVE, **patch)
        self.assert_clean_error(capsys, ["run", write_spec(tmp_path, spec)], field)


class TestExitCodeContract:
    """Pin the documented exit codes the experiment service maps to HTTP.

    ``repro serve`` turns these into statuses (0 → 200, 2 → 400 at submit /
    a failed job at run time, 3 → the warm-store assertion in CI), so the
    server-adjacent error paths must keep their codes.
    """

    INFEASIBLE = dict(
        GOOD_SOLVE,
        requirements={"energy_budget": 1e-9, "max_delay": 1e-3},
        solver={"grid_points": 10},
    )

    @pytest.mark.parametrize(
        "payload, extra_argv, expected",
        [
            pytest.param(GOOD_SOLVE, [], EXIT_OK, id="ok"),
            pytest.param(None, [], EXIT_ERROR, id="unreadable-spec"),
            pytest.param("{not json", [], EXIT_ERROR, id="broken-json"),
            pytest.param({"kind": "frobnicate"}, [], EXIT_ERROR, id="unknown-kind"),
            pytest.param(INFEASIBLE, [], EXIT_ERROR, id="infeasible-solve"),
            pytest.param(
                dict(GOOD_SOLVE, solver={"grid_points": 10, "method": "exhaustive"}),
                [],
                EXIT_ERROR,
                id="solver-method",
            ),
            pytest.param(
                dict(GOOD_SOLVE, runtime={"sim_engine": "batched"}),
                [],
                EXIT_ERROR,
                id="runtime-sim-engine",
            ),
            pytest.param(
                dict(GOOD_SOLVE, runtime={"solver_method": "adaptive"}),
                [],
                EXIT_ERROR,
                id="runtime-solver-method",
            ),
            pytest.param(
                dict(GOOD_SOLVE, runtime={"mode": "thread"}),
                [],
                EXIT_ERROR,
                id="runtime-mode",
            ),
            pytest.param(
                dict(GOOD_SOLVE, runtime={"chunk_size": 2}),
                [],
                EXIT_ERROR,
                id="runtime-chunk-size",
            ),
            pytest.param(
                dict(GOOD_SOLVE, solver={"grid_points": 10, "vectorize": False}),
                [],
                EXIT_ERROR,
                id="solver-vectorize",
            ),
            pytest.param(
                dict(GOOD_SOLVE, solver={"grid_points": 10, "random_starts": 6}),
                [],
                EXIT_ERROR,
                id="solver-random-starts",
            ),
            pytest.param(
                dict(GOOD_SOLVE, solver={"grid_points": 10, "seed": 0}),
                [],
                EXIT_ERROR,
                id="solver-seed",
            ),
            pytest.param(
                dict(GOOD_SOLVE, solver={"grid_points": "abc"}),
                [],
                EXIT_ERROR,
                id="wrongly-typed-value",
            ),
            pytest.param(
                dict(GOOD_SOLVE, protocols=[1e-300]),
                [],
                EXIT_ERROR,
                id="non-string-protocol",
            ),
            pytest.param(
                dict(GOOD_SOLVE, scenario=TINY_PERIOD),
                [],
                EXIT_ERROR,
                id="empty-protocol-box",
            ),
            pytest.param(
                {"kind": "validate", "protocols": ["xmac"], "simulation": {"horizon": 1e20}},
                [],
                EXIT_ERROR,
                id="horizon-past-event-budget",
            ),
            pytest.param(
                {
                    "kind": "validate",
                    "protocols": ["lmac"],
                    "simulation": {"parameters": {"slot_length": 0.0001, "slot_count": 9}},
                },
                [],
                EXIT_ERROR,
                id="parameters-outside-the-box",
            ),
            pytest.param(
                {
                    "kind": "validate",
                    "scenario": {"depth": 300, "density": 300, "sampling_period": 600},
                    "protocols": ["xmac"],
                    "simulation": {"horizon": 600},
                },
                [],
                EXIT_ERROR,
                id="oversized-simulated-scenario",
            ),
            pytest.param(
                GOOD_SOLVE,
                ["--store", "{tmp}/store", "--require-warm"],
                EXIT_NOT_WARM,
                id="cold-store-require-warm",
            ),
        ],
    )
    def test_exit_code(self, capsys, tmp_path, payload, extra_argv, expected):
        if payload is None:
            path = str(tmp_path / "missing.json")
        elif isinstance(payload, str):
            spec_path = tmp_path / "broken.json"
            spec_path.write_text(payload)
            path = str(spec_path)
        else:
            path = write_spec(tmp_path, payload)
        argv = ["run", path] + [arg.format(tmp=tmp_path) for arg in extra_argv]
        assert cli_main(argv) == expected
        captured = capsys.readouterr()
        if expected == EXIT_ERROR:
            assert captured.err.startswith("error: ")
            assert "Traceback" not in captured.err


class TestNameListSplitting:
    """--scenarios/--protocols accept space- and/or comma-separated names."""

    @pytest.mark.parametrize(
        "values, expected",
        [
            (None, ()),
            (["xmac", "lmac"], ("xmac", "lmac")),
            (["xmac,lmac,dmac,scpmac"], ("xmac", "lmac", "dmac", "scpmac")),
            (["xmac,lmac", "scpmac"], ("xmac", "lmac", "scpmac")),
            (["xmac, lmac,"], ("xmac", "lmac")),
        ],
    )
    def test_split_names(self, values, expected):
        from repro.cli import _split_names

        assert _split_names(values) == expected


#: Each subcommand with flags it reads, so a run that took an extra flag
#: would finish quickly.
_FAST_ARGV = {
    "figure1": ["figure1", "--grid-points", "6"],
    "figure2": ["figure2", "--grid-points", "6"],
    "validate": [
        "validate", "xmac", "--depth", "2", "--density", "3",
        "--sampling-period", "60", "--horizon", "300",
    ],
}


class TestFlagsOnlyWhereRead:
    """A subcommand accepts only the flags it reads; argparse names the rest."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (figure, flag, value)
            for figure in ("figure1", "figure2")
            for flag, value in (
                ("--depth", "2"),
                ("--density", "3"),
                ("--sampling-period", "60"),
                ("--radio", "cc1100"),
            )
        ]
        + [("validate", "--grid-points", "6")],
    )
    def test_unread_flag_is_a_usage_error(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            cli_main([*_FAST_ARGV[command], flag, value])
        assert exit_info.value.code == EXIT_ERROR
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
