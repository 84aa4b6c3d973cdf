"""The benchmark's workloads: seeded inputs, set-up, operations and checks.

Every workload drives the program through its public front doors only —
``ExperimentSpec`` documents handed to ``repro.api.run`` or POSTed to the
experiment service — so it measures what a user of ``repro run`` or
``repro serve`` waits for.  Inputs are made from the seed alone; the
program never sees the seed.

A workload is timed in *passes*: one pass runs every item of the workload's
input matrix once, so each pass has the same composition whatever the seed
and however many passes fit in the run.
"""

from __future__ import annotations

import json
import math
import os
import random
from pathlib import Path
from typing import Callable, Dict, List

#: Scenario presets and protocols the matrices draw from.  Fixed here rather
#: than read from the program, so a preset added later does not change what
#: the benchmark measures.
SCENARIOS = (
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

#: Suggested requirements ``(Ebudget J/s, Lmax s)`` of each preset, under
#: which every protocol's game is feasible.  The solve matrix only loosens
#: them, so every solve stays feasible.
PRESET_REQUIREMENTS = {
    "paper-default": (0.06, 6.0),
    "dense-ring": (0.06, 8.0),
    "sparse-ring": (0.06, 12.0),
    "low-power": (0.015, 20.0),
    "high-rate": (0.1, 3.0),
    "sub-ghz": (0.06, 6.0),
    "legacy-bitradio": (0.04, 6.0),
    "bursty": (0.06, 6.0),
}

#: Relative slack allowed on requirement and ordering checks of a solution.
_SLACK = 1e-6


def _finite(value: object) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


class Workload:
    """One set of seeded inputs and how to run and check them.

    Args:
        seed: The benchmark seed every input is derived from.
        scratch: Private directory for files the workload writes.
    """

    #: Registry key, as passed to ``--workload``.
    name = ""
    #: Closed-loop clients issuing operations at once.
    clients = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.scratch = scratch
        self.items: List[Dict[str, object]] = []

    def prepare(self) -> None:
        """Untimed preparation in the measuring process (e.g. a warm store)."""

    def probe(self, ready: Callable[[], None]) -> None:
        """What a fresh process does before its first operation.

        Runs in a child process whose launch-to-``ready()`` time is the
        set-up metric.  The default parses and plans every input spec.
        """
        from repro.api import ExperimentSpec, plan

        for payload in self.items:
            plan(ExperimentSpec.from_dict(payload))
        ready()

    def start(self) -> None:
        """Bring up long-lived objects the operations use (untimed)."""

    def warm_up(self) -> None:
        """Untimed operations that finish lazy set-up before the window."""
        self.check(0, self.execute(0))

    def payload(self, index: int) -> Dict[str, object]:
        """The spec document of operation ``index`` (passes repeat the items)."""
        return self.items[index % len(self.items)]

    def execute(self, index: int) -> object:
        """Run operation ``index`` and return its result."""
        raise NotImplementedError

    def check(self, index: int, result: object) -> bool:
        """Whether operation ``index`` returned a correct result."""
        raise NotImplementedError

    def finish(self) -> bool:
        """Untimed checks after the measured window."""
        return True

    def close(self) -> None:
        """Stop whatever ``start`` began; safe to call more than once."""


class SolveMatrix(Workload):
    """Cold game solves over every (scenario preset × protocol) cell.

    Each operation is one ``solve`` spec — one cell at seeded requirements
    looser than the preset's — run with the solve cache off, so every pass
    solves P1, P2 and P4 from scratch.  A result must respect its
    requirements and the bargaining order ``best <= star <= worst``, and a
    repeated cell must reproduce its first rows exactly.
    """

    name = "solve-matrix"

    #: Grid points per parameter axis, as in ``examples/specs/solve.json``.
    GRID_POINTS = 40

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        rng = random.Random(seed)
        cells = [(scenario, protocol) for scenario in SCENARIOS for protocol in PROTOCOLS]
        rng.shuffle(cells)
        for index, (scenario, protocol) in enumerate(cells):
            budget, delay = PRESET_REQUIREMENTS[scenario]
            self.items.append(
                {
                    "kind": "solve",
                    "name": f"matrix-{index}",
                    "scenario": scenario,
                    "protocols": [protocol],
                    # Narrow ranges: a solve's cost moves with its
                    # requirements, and a pass's total must not move with
                    # the seed.
                    "requirements": {
                        "energy_budget": round(budget * rng.uniform(1.0, 1.1), 6),
                        "max_delay": round(delay * rng.uniform(1.0, 1.2), 4),
                    },
                    "solver": {"grid_points": self.GRID_POINTS},
                    "runtime": {"cache": False},
                }
            )
        self._first_rows: Dict[int, object] = {}

    def warm_up(self) -> None:
        # One solve per protocol: each model's first solve is slower.
        for protocol in PROTOCOLS:
            index = next(
                i for i, item in enumerate(self.items) if item["protocols"] == [protocol]
            )
            self.check(index, self.execute(index))

    def execute(self, index: int) -> object:
        from repro.api import ExperimentSpec, run

        return run(ExperimentSpec.from_dict(self.payload(index)))

    def check(self, index: int, result: object) -> bool:
        rows = result.rows()  # type: ignore[attr-defined]
        requirements = self.payload(index)["requirements"]
        if len(rows) != 1 or not _solution_ok(rows[0], requirements):
            return False
        first = self._first_rows.setdefault(index % len(self.items), rows)
        return first == rows


def _solution_ok(row: Dict[str, object], requirements: Dict[str, float]) -> bool:
    """A feasible Nash point inside the requirements and the bargaining box."""
    names = ("E_best", "E_star", "E_worst", "L_best", "L_star", "L_worst")
    if row.get("feasible") is not True or not all(_finite(row.get(n)) for n in names):
        return False
    e_best, e_star, e_worst, l_best, l_star, l_worst = (float(row[n]) for n in names)
    up, down = 1.0 + _SLACK, 1.0 - _SLACK
    return (
        0.0 < e_best <= e_star * up
        and e_star <= e_worst * up
        and 0.0 < l_best <= l_star * up
        and l_star <= l_worst * up
        and e_star * down <= float(requirements["energy_budget"])
        and l_star * down <= float(requirements["max_delay"])
        and _finite(row.get("fairness_residual"))
    )


class PooledCampaign(Workload):
    """Monte-Carlo validation campaigns fanned out over a process pool.

    Each operation is one ``campaign`` spec of one scenario × two protocols,
    run with two workers and the cache off: the pool solves the two cells'
    games, then simulates their replications.  The eight specs of a pass
    cover every preset once and every protocol four times; the seed picks
    the replication seeds and the order.  Rows must be well-formed, a
    repeated spec must reproduce them exactly, and after the window one
    spec is re-run serially and must match its pooled rows bit for bit.
    """

    name = "pooled-campaign"

    WORKERS = 2
    REPLICATIONS = 2
    HORIZON_S = 600.0
    GRID_POINTS = 24
    #: ``(scenario, protocols)`` of the specs of one pass.
    CELLS = (
        ("paper-default", ("xmac", "scpmac")),
        ("high-rate", ("dmac", "scpmac")),
        ("low-power", ("dmac", "lmac")),
        ("bursty", ("xmac", "lmac")),
        ("dense-ring", ("xmac", "lmac")),
        ("sub-ghz", ("dmac", "scpmac")),
        ("sparse-ring", ("xmac", "dmac")),
        ("legacy-bitradio", ("lmac", "scpmac")),
    )

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        rng = random.Random(seed)
        cells = list(self.CELLS)
        rng.shuffle(cells)
        for index, (scenario, protocols) in enumerate(cells):
            self.items.append(
                {
                    "kind": "campaign",
                    "name": f"campaign-{index}",
                    "scenarios": [scenario],
                    "protocols": list(protocols),
                    "campaign": {
                        "replications": self.REPLICATIONS,
                        "base_seed": rng.randrange(1, 2**31),
                        "horizon": self.HORIZON_S,
                    },
                    "solver": {"grid_points": self.GRID_POINTS},
                    "runtime": {"workers": self.WORKERS, "cache": False},
                }
            )
        self._first_rows: Dict[int, object] = {}

    def execute(self, index: int) -> object:
        from repro.api import ExperimentSpec, run

        return run(ExperimentSpec.from_dict(self.payload(index)))

    def check(self, index: int, result: object) -> bool:
        rows = result.rows()  # type: ignore[attr-defined]
        if len(rows) != len(self.payload(index)["protocols"]):
            return False
        if not all(_cell_ok(row, self.REPLICATIONS) for row in rows):
            return False
        first = self._first_rows.setdefault(index % len(self.items), rows)
        return first == rows

    def finish(self) -> bool:
        from repro.api import ExperimentSpec, run

        # The pool must be invisible in the results: serial == pooled.
        payload = dict(self.items[0], runtime={"workers": 1, "cache": False})
        serial = run(ExperimentSpec.from_dict(payload)).rows()
        return self._first_rows.get(0) == serial


def _cell_ok(row: Dict[str, object], replications: int) -> bool:
    """A feasible, simulated campaign cell with sane aggregates."""
    delivery = row.get("delivery")
    return (
        row.get("feasible") is True
        and row.get("replications") == replications
        and _finite(row.get("E_model")) and float(row["E_model"]) > 0.0
        and _finite(row.get("E_sim_mean")) and float(row["E_sim_mean"]) > 0.0
        and _finite(delivery) and 0.0 <= float(delivery) <= 1.0
        and row.get("status") in ("pass", "fail")
    )


class WarmService(Workload):
    """Jobs answered by the experiment service from a warm result store.

    Set-up solves four seeded base specs — one each of ``solve``, ``sweep``,
    ``suite`` and ``campaign`` — into a result store.  The service then runs
    on that store and two closed-loop clients each submit a spec, poll for
    it and fetch the result, then submit the next.  Every submission is a
    base spec under a fresh name, so the queue cannot deduplicate it: each
    job is claimed, planned and executed, and all of its solves and
    replications are store hits.  Served rows must equal the rows of the
    base spec's cold run, and the store must take no miss and no write.
    """

    name = "warm-service"
    clients = 2

    SERVICE_WORKERS = 2
    GRID_POINTS = 24
    #: Client poll period while a job is pending, in seconds.
    POLL_S = 0.002

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        rng = random.Random(seed)
        solver = {"grid_points": self.GRID_POINTS}
        scenario = rng.choice(SCENARIOS)
        budget, delay = PRESET_REQUIREMENTS[scenario]
        sweep_scenario = rng.choice(SCENARIOS)
        sweep_budget, sweep_delay = PRESET_REQUIREMENTS[sweep_scenario]
        self.items = [
            {
                "kind": "solve",
                "scenario": scenario,
                "protocols": sorted(rng.sample(PROTOCOLS, 2)),
                "requirements": {
                    "energy_budget": round(budget * rng.uniform(1.0, 1.5), 6),
                    "max_delay": round(delay * rng.uniform(1.0, 2.0), 4),
                },
                "solver": solver,
            },
            {
                "kind": "sweep",
                "scenario": sweep_scenario,
                "protocols": [rng.choice(PROTOCOLS)],
                "requirements": {"energy_budget": sweep_budget},
                "sweep": {
                    "parameter": "max_delay",
                    "values": [round(sweep_delay * k, 4) for k in (1.0, 1.5, 2.0)],
                },
                "solver": solver,
            },
            {
                "kind": "suite",
                "scenarios": sorted(rng.sample(SCENARIOS, 2)),
                "protocols": sorted(rng.sample(PROTOCOLS, 2)),
                "solver": solver,
            },
            {
                "kind": "campaign",
                "scenarios": [rng.choice(SCENARIOS)],
                "protocols": sorted(rng.sample(PROTOCOLS, 2)),
                "campaign": {
                    "replications": 2,
                    "base_seed": rng.randrange(1, 2**31),
                    "horizon": 600.0,
                },
                "solver": solver,
            },
        ]
        self.store_dir = scratch / "store"
        self._reference_rows: List[object] = []
        self._service = None
        self._client = None

    def prepare(self) -> None:
        from repro.api import ExperimentSpec, run, runner_for
        from repro.store import ResultStore

        store = ResultStore(self.store_dir)
        for payload in self.items:
            spec = ExperimentSpec.from_dict(payload)
            cold = json.loads(run(spec, runner=runner_for(spec, store=store)).json_text())
            self._reference_rows.append(cold["rows"])

    def probe(self, ready: Callable[[], None]) -> None:
        from repro.service import ExperimentService, ServiceClient

        service = ExperimentService(
            store_dir=self.store_dir,
            queue_dir=self.scratch / f"probe-queue-{os.getpid()}",
            workers=self.SERVICE_WORKERS,
        )
        service.start()
        try:
            ServiceClient(service.url).healthz()
            ready()
        finally:
            service.stop()

    def start(self) -> None:
        from repro.service import ExperimentService, ServiceClient

        self._service = ExperimentService(
            store_dir=self.store_dir,
            queue_dir=self.scratch / "queue",
            workers=self.SERVICE_WORKERS,
        )
        self._service.start()
        self._client = ServiceClient(self._service.url, timeout=60.0)

    def warm_up(self) -> None:
        for number, item in enumerate(self.items):
            self._client.run(
                dict(item, name=f"warm-up-{number}"), timeout=60.0, poll_interval=self.POLL_S
            )

    def payload(self, index: int) -> Dict[str, object]:
        return dict(self.items[index % len(self.items)], name=f"job-{index}")

    def execute(self, index: int) -> object:
        return self._client.run(self.payload(index), timeout=60.0, poll_interval=self.POLL_S)

    def check(self, index: int, result: object) -> bool:
        from repro.api import ExperimentSpec

        served = json.loads(result)  # type: ignore[arg-type]
        expected_hash = ExperimentSpec.from_dict(self.payload(index)).spec_hash()
        return (
            served.get("spec_sha256") == expected_hash
            and served.get("rows") == self._reference_rows[index % len(self.items)]
        )

    def finish(self) -> bool:
        stats = self._service.store.stats()
        return stats.misses == 0 and stats.puts == 0 and stats.hits > 0

    def close(self) -> None:
        service, self._service = self._service, None
        if service is not None:
            service.stop()


WORKLOADS: Dict[str, type] = {
    workload.name: workload for workload in (SolveMatrix, PooledCampaign, WarmService)
}
