"""Command-line interface.

``repro-mac-game`` (or ``python -m repro.cli``) exposes the main workflows:

* ``run``       — execute a declarative experiment spec (``.json``/``.toml``),
* ``solve``     — solve the energy-delay game for one protocol,
* ``sweep``     — sweep a requirement and print the series,
* ``figure1``   — regenerate the paper's Figure 1 series,
* ``figure2``   — regenerate the paper's Figure 2 series,
* ``suite``     — run the scenario suite: every (scenario × protocol) game,
* ``scenarios`` — list the scenario presets of the library,
* ``validate``  — compare the analytical model against the simulator,
* ``validate-campaign`` — replicated Monte-Carlo validation over the suite,
* ``protocols`` — list the available protocol models,
* ``store``     — maintain persistent result stores (merge/verify/gc/stats),
* ``serve``     — run the experiment service (HTTP job server + worker pool).

Workload subcommands accept ``--store DIR`` to back the solve cache with a
persistent, content-addressed result store: warm runs skip already-solved
work (``run --require-warm`` turns "zero fresh results" into an exit-code
assertion), interrupted campaigns resume incrementally, and ``--shard I/N``
runs from separate machines merge byte-identically with ``store merge``.
``--no-cache`` bypasses *both* layers — memory cache and store — explicitly.

Every workload subcommand is a thin *spec builder*: it assembles an
:class:`repro.api.ExperimentSpec` from its arguments and pushes it through
the shared ``spec → plan → run`` pipeline, so ``solve``/``sweep``/``suite``
/... are each exactly equivalent to ``run`` with the corresponding spec
file (see ``examples/specs/`` and ``docs/api.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.reporting import format_table
from repro.api import ExperimentSpec, ResultSet, plan as plan_experiment, run as run_experiment
from repro.api.engine import runner_for
from repro.exceptions import ConfigurationError, ReproError
from repro.protocols.registry import available_protocols
from repro.scenarios import available_scenarios, scenario_presets
from repro.simulation.mac.factory import available_mac_protocols
from repro.store import ResultStore, merge_stores
from repro.validation import write_campaign

#: The CLI's documented exit-code contract.  The experiment service maps
#: these onto HTTP statuses, so they are pinned by tests — change them and
#: the service (and anything scripting the CLI) changes with you.
EXIT_OK = 0  # the command succeeded
EXIT_CORRUPT = 1  # `store verify` found corrupt records
EXIT_ERROR = 2  # a ReproError: bad spec/arguments, infeasible solve, ...
EXIT_NOT_WARM = 3  # `run --require-warm` saw fresh solves


def _print_runtime_summary(result: ResultSet) -> None:
    telemetry = result.telemetry
    line = f"# runtime: {telemetry['runner']}"
    if result.spec.runtime.cache:
        line += f" — cache: {telemetry['cache_hits']} hits / {telemetry['cache_misses']} misses"
    print(line)


def _open_store(args: argparse.Namespace) -> Optional[ResultStore]:
    """The persistent store the run should use, honouring ``--no-cache``.

    ``--no-cache`` disables *both* caching layers: combining it with
    ``--store`` prints an explicit note and runs with neither, instead of
    silently keeping one layer (or resetting its stats) behind the user's
    back.
    """
    path = getattr(args, "store", None)
    if not path:
        return None
    if getattr(args, "no_cache", False):
        print("# --no-cache: solve cache and result store both bypassed")
        return None
    return ResultStore(path)


def _print_store_summary(result: ResultSet) -> None:
    telemetry = result.telemetry
    if "store_hits" in telemetry:
        print(
            f"# store: {telemetry['store_hits']} hits / "
            f"{telemetry['store_misses']} misses / {telemetry['store_puts']} puts"
        )


def _split_names(values: Optional[Sequence[str]]) -> tuple:
    """Flatten name lists given space- and/or comma-separated.

    ``--protocols xmac lmac`` and ``--protocols xmac,lmac`` (or any mix)
    yield the same tuple; ``None``/empty stays empty (the kind's default).
    """
    if not values:
        return ()
    names = []
    for value in values:
        names.extend(part.strip() for part in value.split(",") if part.strip())
    return tuple(names)


def _scenario_ref(args: argparse.Namespace) -> dict:
    """The inline-scenario mapping a subcommand's scenario arguments describe."""
    return {
        "depth": args.depth,
        "density": args.density,
        "sampling_period": args.sampling_period,
        "radio": args.radio,
    }


def _runtime_kwargs(args: argparse.Namespace) -> dict:
    return {"workers": args.workers, "cache": not args.no_cache}


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--depth", type=int, default=5, help="number of rings D (default 5)")
    parser.add_argument("--density", type=int, default=8, help="neighbourhood size C (default 8)")
    parser.add_argument(
        "--sampling-period",
        type=float,
        default=3600.0,
        help="application sampling period in seconds (default 3600)",
    )
    parser.add_argument("--radio", default="cc2420", help="radio preset (cc2420, cc1100, tr1001)")
    parser.add_argument(
        "--grid-points",
        type=int,
        default=60,
        help="grid resolution per parameter dimension for the hybrid solver",
    )


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the solves (1 = serial, 0 = one per CPU)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "disable the solve cache (every solve is recomputed); "
            "also bypasses --store"
        ),
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent content-addressed result store directory "
        "(read-through/write-behind; created if missing)",
    )


def _write_optional_csv(result: ResultSet, path: Optional[str]) -> None:
    if path:
        written = result.to_csv(path)
        print(f"# wrote {written}")


def _cmd_protocols(_: argparse.Namespace) -> int:
    for name in available_protocols():
        print(name)
    return EXIT_OK


def _cmd_scenarios(_: argparse.Namespace) -> int:
    rows = [dict(preset.describe()) for preset in scenario_presets()]
    print(format_table(rows))
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.from_file(args.spec)
    if args.workers is not None:
        spec = spec.with_runtime(workers=args.workers)
    if args.no_cache:
        spec = spec.with_runtime(cache=False)
    plan = plan_experiment(spec)
    if args.shard:
        try:
            index_text, _, count_text = args.shard.partition("/")
            index, count = int(index_text), int(count_text)
        except ValueError:
            raise ConfigurationError(
                f"--shard must look like INDEX/COUNT (e.g. 0/4), got {args.shard!r}"
            ) from None
        plan = plan.shard(index, count)
    title = f" {spec.name!r}" if spec.name else ""
    print(f"# spec{title}: {plan.describe()} — sha256 {spec.spec_hash()[:12]}")
    if args.plan_only:
        print(format_table(plan.rows()))
        return EXIT_OK
    store = _open_store(args)
    if args.require_warm and (store is None or not spec.runtime.cache):
        # Without the cache the store is bypassed: nothing could be warm.
        raise ConfigurationError(
            "--require-warm needs --store and the solve cache "
            "(it is incompatible with --no-cache and a spec's \"cache\": false)"
        )
    result = run_experiment(plan, runner=runner_for(spec, store=store))
    print(format_table(result.rows()))
    _write_optional_csv(result, args.csv)
    if args.out:
        written = result.to_json(args.out)
        print(f"# wrote {written}")
    failed = result.failed_records
    if failed:
        labels = ", ".join(
            f"{record.unit.scenario}/{record.unit.protocol}" for record in failed
        )
        print(f"# units without a passing result: {labels}")
    _print_store_summary(result)
    _print_runtime_summary(result)
    if args.require_warm:
        misses = result.telemetry["store_misses"]
        puts = result.telemetry["store_puts"]
        if misses or puts:
            print(
                f"# --require-warm: store was not warm ({misses} misses, {puts} puts)",
                file=sys.stderr,
            )
            return EXIT_NOT_WARM
        print("# --require-warm: satisfied (zero fresh results)")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    spec = (
        ExperimentSpec.experiment("solve")
        .with_scenario(_scenario_ref(args))
        .with_protocols(args.protocol)
        .with_requirements(energy_budget=args.energy_budget, max_delay=args.max_delay)
        .with_solver(grid_points=args.grid_points)
    )
    result = run_experiment(spec)
    solution = result.records[0].value
    print(f"# {solution.protocol} — Ebudget={args.energy_budget} J/s, Lmax={args.max_delay} s")
    print(format_table(result.rows()))
    print("# bargaining parameters:", dict(solution.bargaining.point.parameters))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = (
        ExperimentSpec.experiment("sweep")
        .with_scenario(_scenario_ref(args))
        .with_protocols(args.protocol)
        .with_sweep(args.vary, [float(value) for value in args.values])
        .with_requirements(energy_budget=args.energy_budget, max_delay=args.max_delay)
        .with_solver(grid_points=args.grid_points)
        .with_runtime(**_runtime_kwargs(args))
    )
    result = run_experiment(spec, runner=runner_for(spec, store=_open_store(args)))
    print(format_table(result.rows()))
    _write_optional_csv(result, args.csv)
    infeasible = [float(record.unit.settings["value"]) for record in result.failed_records]
    if infeasible:
        print(f"# infeasible values: {infeasible}")
    _print_store_summary(result)
    _print_runtime_summary(result)
    return EXIT_OK


def _cmd_figure(args: argparse.Namespace, which: int) -> int:
    spec = (
        ExperimentSpec.experiment(f"figure{which}")
        .with_solver(grid_points=args.grid_points)
        .with_runtime(**_runtime_kwargs(args))
    )
    result = run_experiment(spec, runner=runner_for(spec, store=_open_store(args)))
    print(format_table(result.rows()))
    _write_optional_csv(result, args.csv)
    _print_store_summary(result)
    _print_runtime_summary(result)
    return EXIT_OK


def _cmd_suite(args: argparse.Namespace) -> int:
    spec = (
        ExperimentSpec.experiment("suite")
        .with_scenarios(*_split_names(args.scenarios))
        .with_protocols(*_split_names(args.protocols))
        .with_solver(grid_points=args.grid_points)
        .with_runtime(**_runtime_kwargs(args))
    )
    if args.energy_budget is not None or args.max_delay is not None:
        spec = spec.with_requirements(
            energy_budget=args.energy_budget, max_delay=args.max_delay
        )
    plan = plan_experiment(spec)
    print(
        f"# scenario suite: {len(plan.scenario_names)} scenarios × "
        f"{len(plan.protocol_names)} protocols = {plan.count} games"
    )
    result = run_experiment(plan, runner=runner_for(spec, store=_open_store(args)))
    print(format_table(result.rows()))
    _write_optional_csv(result, args.csv)
    infeasible = result.failed_records
    if infeasible:
        pairs = ", ".join(
            f"{record.unit.scenario}/{record.unit.protocol}" for record in infeasible
        )
        print(f"# infeasible pairs: {pairs}")
    _print_store_summary(result)
    _print_runtime_summary(result)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = (
        ExperimentSpec.experiment("validate")
        .with_scenario(_scenario_ref(args))
        .with_protocols(args.protocol)
        .with_simulation(horizon=args.horizon, seed=args.seed)
    )
    result = run_experiment(spec)
    print(format_table(result.rows()))
    return EXIT_OK


def _cmd_validate_campaign(args: argparse.Namespace) -> int:
    spec = (
        ExperimentSpec.experiment("campaign")
        .with_scenarios(*_split_names(args.scenarios))
        .with_protocols(*_split_names(args.protocols))
        .with_campaign(
            replications=args.replications,
            base_seed=args.base_seed,
            horizon=args.horizon,
            confidence=args.confidence,
        )
        .with_solver(grid_points=args.grid_points)
        .with_runtime(**_runtime_kwargs(args))
    )
    plan = plan_experiment(spec)
    replications = spec.campaign.replications
    print(
        f"# validation campaign: {len(plan.scenario_names)} scenarios × "
        f"{len(plan.protocol_names)} protocols × {replications} replications "
        f"= {plan.count * replications} simulations"
    )
    result = run_experiment(plan, runner=runner_for(spec, store=_open_store(args)))
    print(format_table(result.rows()))
    if args.out:
        path = write_campaign(result.raw, args.out)
        print(f"# wrote {path}")
    _write_optional_csv(result, args.csv)
    failed = result.raw.failed_cells
    if failed:
        pairs = ", ".join(f"{cell.scenario}/{cell.protocol}" for cell in failed)
        print(f"# cells with failed checks: {pairs}")
    _print_store_summary(result)
    _print_runtime_summary(result)
    return EXIT_OK


def _cmd_store_merge(args: argparse.Namespace) -> int:
    report = merge_stores(args.sources, args.out)
    print(
        f"# merged {report.sources} store(s) into {args.out}: "
        f"{report.written} written, {report.shared} already shared"
    )
    return EXIT_OK


def _cmd_store_verify(args: argparse.Namespace) -> int:
    store = ResultStore(args.store_dir, create=False)
    report = store.verify()
    if report.ok:
        print(f"# verified {report.checked} record(s): all clean")
        return EXIT_OK
    for digest, reason in report.corrupt:
        print(f"# corrupt {digest[:12]}…: {reason}")
    print(f"# verified {report.checked} record(s): {len(report.corrupt)} corrupt")
    return EXIT_CORRUPT


def _cmd_store_gc(args: argparse.Namespace) -> int:
    store = ResultStore(args.store_dir, create=False)
    report = store.gc(drop_corrupt=args.drop_corrupt)
    print(
        f"# gc {args.store_dir}: removed {report.tmp_removed} temp file(s), "
        f"{report.corrupt_removed} corrupt record(s)"
    )
    return EXIT_OK


def _cmd_store_stats(args: argparse.Namespace) -> int:
    store = ResultStore(args.store_dir, create=False)
    stats = store.stats()
    counts = store.counts_by_kind()
    parts = ", ".join(f"{kind}: {count}" for kind, count in sorted(counts.items())) or "empty"
    print(
        f"# store {args.store_dir}: {stats.records} record(s) ({parts}), "
        f"{stats.bytes} bytes"
    )
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ExperimentService

    service = ExperimentService(
        store_dir=args.store,
        queue_dir=args.queue,
        host=args.host,
        port=args.port,
        workers=args.workers,
    )
    service.start()
    try:
        print(f"# serving on http://{service.host}:{service.port}/v1/ — "
              f"{args.workers} worker(s), store {args.store}")
        if service.queue.requeued:
            print(f"# journal replay re-queued {service.queue.requeued} job(s)")
        service.serve_forever()
    except KeyboardInterrupt:
        print("# shutting down")
    finally:
        service.stop()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-mac-game",
        description="Game-theoretic energy-delay balancing for duty-cycled MAC protocols",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="execute a declarative experiment spec (.json or .toml)"
    )
    run_parser.add_argument("spec", help="path to the experiment spec file")
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="override the spec's worker count (1 = serial, 0 = one per CPU)",
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="override the spec to disable the solve cache (bypasses --store too)",
    )
    run_parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent content-addressed result store directory "
        "(read-through/write-behind; created if missing)",
    )
    run_parser.add_argument(
        "--require-warm",
        action="store_true",
        help="exit 3 unless the run was answered entirely from --store "
        "(zero fresh solves/simulations)",
    )
    run_parser.add_argument(
        "--plan-only",
        action="store_true",
        help="print the expanded work units without running anything",
    )
    run_parser.add_argument(
        "--shard",
        default=None,
        metavar="INDEX/COUNT",
        help="run only one round-robin shard of the plan (e.g. 0/4)",
    )
    run_parser.add_argument("--csv", default=None, help="optional CSV output path")
    run_parser.add_argument(
        "--out", default=None, help="write the versioned result JSON to this path"
    )
    run_parser.set_defaults(handler=_cmd_run)

    protocols_parser = subparsers.add_parser("protocols", help="list available protocols")
    protocols_parser.set_defaults(handler=_cmd_protocols)

    solve_parser = subparsers.add_parser("solve", help="solve the game for one protocol")
    solve_parser.add_argument(
        "protocol", help=f"protocol name ({', '.join(available_protocols())})"
    )
    solve_parser.add_argument("--energy-budget", type=float, default=0.06)
    solve_parser.add_argument("--max-delay", type=float, default=6.0)
    _add_scenario_arguments(solve_parser)
    solve_parser.set_defaults(handler=_cmd_solve)

    sweep_parser = subparsers.add_parser("sweep", help="sweep a requirement")
    sweep_parser.add_argument("protocol")
    sweep_parser.add_argument("--vary", choices=("max-delay", "energy-budget"), required=True)
    sweep_parser.add_argument("--values", nargs="+", required=True)
    sweep_parser.add_argument("--energy-budget", type=float, default=0.06)
    sweep_parser.add_argument("--max-delay", type=float, default=6.0)
    sweep_parser.add_argument("--csv", default=None, help="optional CSV output path")
    _add_scenario_arguments(sweep_parser)
    _add_runtime_arguments(sweep_parser)
    sweep_parser.set_defaults(handler=_cmd_sweep)

    figure1_parser = subparsers.add_parser("figure1", help="regenerate the paper's Figure 1")
    figure1_parser.add_argument("--csv", default=None)
    _add_scenario_arguments(figure1_parser)
    _add_runtime_arguments(figure1_parser)
    figure1_parser.set_defaults(handler=lambda args: _cmd_figure(args, 1))

    figure2_parser = subparsers.add_parser("figure2", help="regenerate the paper's Figure 2")
    figure2_parser.add_argument("--csv", default=None)
    _add_scenario_arguments(figure2_parser)
    _add_runtime_arguments(figure2_parser)
    figure2_parser.set_defaults(handler=lambda args: _cmd_figure(args, 2))

    scenarios_parser = subparsers.add_parser(
        "scenarios", help="list the scenario presets of the library"
    )
    scenarios_parser.set_defaults(handler=_cmd_scenarios)

    suite_parser = subparsers.add_parser(
        "suite", help="run every (scenario × protocol) game of the scenario library"
    )
    suite_parser.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="NAME",
        help=f"scenario presets to run (default: all — {', '.join(available_scenarios())})",
    )
    suite_parser.add_argument(
        "--protocols",
        nargs="+",
        default=None,
        metavar="NAME",
        help="protocols to run, space- or comma-separated (default: all registered)",
    )
    suite_parser.add_argument(
        "--energy-budget",
        type=float,
        default=None,
        help="override every preset's suggested energy budget (J/s)",
    )
    suite_parser.add_argument(
        "--max-delay",
        type=float,
        default=None,
        help="override every preset's suggested delay bound (s)",
    )
    suite_parser.add_argument(
        "--grid-points",
        type=int,
        default=60,
        help="grid resolution per parameter dimension for the hybrid solver",
    )
    suite_parser.add_argument("--csv", default=None, help="optional CSV output path")
    _add_runtime_arguments(suite_parser)
    suite_parser.set_defaults(handler=_cmd_suite)

    validate_parser = subparsers.add_parser(
        "validate", help="compare the analytical model against the simulator"
    )
    validate_parser.add_argument("protocol")
    validate_parser.add_argument("--horizon", type=float, default=2000.0)
    validate_parser.add_argument("--seed", type=int, default=1)
    _add_scenario_arguments(validate_parser)
    validate_parser.set_defaults(handler=_cmd_validate)

    campaign_parser = subparsers.add_parser(
        "validate-campaign",
        help="replicated Monte-Carlo model-vs-simulation campaign over the scenario suite",
    )
    campaign_parser.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="NAME",
        help=f"scenario presets to cover (default: all — {', '.join(available_scenarios())})",
    )
    campaign_parser.add_argument(
        "--protocols",
        nargs="+",
        default=None,
        metavar="NAME",
        help=(
            "protocols to cover, space- or comma-separated (default: all "
            f"with a simulated behaviour — {', '.join(available_mac_protocols())})"
        ),
    )
    campaign_parser.add_argument(
        "--replications",
        type=int,
        default=5,
        help="independently seeded simulation runs per (scenario, protocol) cell",
    )
    campaign_parser.add_argument(
        "--base-seed",
        type=int,
        default=1,
        help="base seed every replication seed is derived from",
    )
    campaign_parser.add_argument(
        "--horizon",
        type=float,
        default=1500.0,
        help="simulated duration of each replication in seconds",
    )
    campaign_parser.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="two-sided confidence level of the Student-t intervals",
    )
    campaign_parser.add_argument(
        "--grid-points",
        type=int,
        default=40,
        help="grid resolution per parameter dimension for the hybrid solver",
    )
    campaign_parser.add_argument(
        "--out",
        default=None,
        help="write the versioned JSON campaign artifact to this path",
    )
    campaign_parser.add_argument("--csv", default=None, help="optional CSV output path")
    _add_runtime_arguments(campaign_parser)
    campaign_parser.set_defaults(handler=_cmd_validate_campaign)

    store_parser = subparsers.add_parser(
        "store", help="maintain persistent content-addressed result stores"
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)

    merge_parser = store_sub.add_parser(
        "merge", help="merge stores (e.g. from sharded runs) into one"
    )
    merge_parser.add_argument("sources", nargs="+", help="source store directories")
    merge_parser.add_argument(
        "--out", required=True, help="destination store directory (created if missing)"
    )
    merge_parser.set_defaults(handler=_cmd_store_merge)

    verify_parser = store_sub.add_parser(
        "verify", help="check the integrity hash of every record"
    )
    verify_parser.add_argument("store_dir", help="store directory to verify")
    verify_parser.set_defaults(handler=_cmd_store_verify)

    gc_parser = store_sub.add_parser(
        "gc", help="remove stale temp files (and, on request, corrupt records)"
    )
    gc_parser.add_argument("store_dir", help="store directory to clean")
    gc_parser.add_argument(
        "--drop-corrupt",
        action="store_true",
        help="also delete records that fail their integrity check",
    )
    gc_parser.set_defaults(handler=_cmd_store_gc)

    stats_parser = store_sub.add_parser("stats", help="print record counts by kind")
    stats_parser.add_argument("store_dir", help="store directory to inspect")
    stats_parser.set_defaults(handler=_cmd_store_stats)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the experiment service: an HTTP job server executing "
        "queued specs on a shared result store",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="bind port (default 8642; 0 picks a free port)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker threads draining the job queue (default 2)",
    )
    serve_parser.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="persistent result store shared by every job (created if missing)",
    )
    serve_parser.add_argument(
        "--queue",
        default=None,
        metavar="DIR",
        help="job queue directory (journal + results; default: STORE/jobs)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return int(args.handler(args))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
