"""Monte-Carlo validation campaigns across the scenario suite.

:mod:`repro.analysis.validation` compares the analytical model against the
simulator at *one* seed and *one* configuration — a spot check.  A campaign
scales that into a statistically quantified sweep: for every
(scenario preset × protocol), solve the bargaining game through the shared
:class:`~repro.runtime.batch.BatchRunner` (so the solve stage is cached and
deduplicated), then run R independently seeded packet-level replications at
the Nash bargaining point, aggregate each metric with streaming Welford
moments and Student-t confidence intervals, and gate the cell with
per-metric tolerance checks.

Disagreement is **data, not an exception**: a cell whose game is infeasible,
whose replications deliver no packets, or whose simulated mean falls outside
the analytical tolerance is recorded with a failed/skipped check and the
campaign keeps going.  The whole result serializes into a versioned JSON
artifact (see :mod:`repro.validation.artifacts`) from which
``docs/validation.md`` is generated (:mod:`repro.validation.report`).

Determinism: replication seeds are derived by hashing
``(base_seed, scenario, protocol, replication)``, each simulation is fully
determined by its seed, and aggregation always folds samples in replication
order — so a campaign run with ``--workers N`` is byte-identical to a serial
run (``tests/validation`` and ``benchmarks/bench_campaign.py`` assert it).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, StoreError, ValidationError
from repro.protocols.registry import canonical_name, protocol_class
from repro.runtime import BatchRunner, SolveTask, build_runner
from repro.scenarios.presets import available_scenarios, scenario_preset
from repro.simulation.mac.factory import available_mac_protocols, has_behaviour_for
from repro.simulation.runner import SimulationConfig, simulate_protocol
from repro.validation.stats import MetricAggregate, StreamingMoments

#: Metrics every campaign cell aggregates, in artifact order.
CAMPAIGN_METRICS = ("energy", "delay", "delivery_ratio")

#: Allowed states of a :class:`MetricCheck`.
CHECK_STATUSES = ("pass", "fail", "skipped")


def replication_seed(base_seed: int, scenario: str, protocol: str, replication: int) -> int:
    """Deterministic, platform-independent seed of one replication.

    The seed is derived by hashing the full replication identity, so it does
    not depend on the order cells are enumerated in, on the worker count, or
    on Python's per-process hash randomization.

    Args:
        base_seed: Campaign-level base seed.
        scenario: Scenario preset name.
        protocol: Canonical protocol name.
        replication: Zero-based replication index.

    Returns:
        A 32-bit unsigned seed for :class:`~repro.simulation.runner.SimulationConfig`.
    """
    identity = f"{base_seed}:{scenario}:{protocol}:{replication}".encode("utf-8")
    digest = hashlib.sha256(identity).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of one validation campaign.

    Attributes:
        scenarios: Scenario preset names to cover (default: all registered).
        protocols: Protocol names to cover (default: every registered
            protocol with a simulated behaviour — all four built-ins,
            including SCP-MAC).
        replications: Independently seeded simulation runs per cell.
        base_seed: Base seed every replication seed is derived from.
        horizon: Simulated duration of each replication (seconds).
        confidence: Two-sided confidence level of the Student-t intervals.
        grid_points_per_dimension: Grid resolution of the game solver.
        energy_tolerance: Allowed relative error of the analytical energy
            prediction against the simulated mean.
        delay_tolerance: Allowed relative error of the delay prediction.
        min_delivery_ratio: Floor on the mean delivery ratio.
    """

    scenarios: Tuple[str, ...] = ()
    protocols: Tuple[str, ...] = ()
    replications: int = 5
    base_seed: int = 1
    horizon: float = 1500.0
    confidence: float = 0.95
    grid_points_per_dimension: int = 40
    energy_tolerance: float = 0.35
    delay_tolerance: float = 0.6
    min_delivery_ratio: float = 0.9

    def __post_init__(self) -> None:
        scenarios = tuple(self.scenarios) or tuple(available_scenarios())
        protocols = tuple(
            canonical_name(name) for name in (self.protocols or _simulable_protocols())
        )
        for name in scenarios:
            scenario_preset(name)  # raises ConfigurationError on unknown names
        for name in protocols:
            # Reject analytical-only protocols up front: discovering mid-
            # campaign (after the solve stage) that a cell cannot be
            # simulated would abort the whole run.
            if not has_behaviour_for(protocol_class(name)):
                raise ConfigurationError(
                    f"protocol {name!r} has no simulated behaviour and cannot "
                    f"be validated by simulation; simulable protocols: "
                    f"{', '.join(available_mac_protocols())}"
                )
        object.__setattr__(self, "scenarios", scenarios)
        object.__setattr__(self, "protocols", protocols)
        if len(set(scenarios)) != len(scenarios):
            raise ConfigurationError(f"duplicate scenarios in campaign: {scenarios}")
        if len(set(protocols)) != len(protocols):
            raise ConfigurationError(f"duplicate protocols in campaign: {protocols}")
        if self.replications < 1:
            raise ConfigurationError(
                f"replications must be >= 1, got {self.replications}"
            )
        if self.horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon!r}")
        if not (0.0 < self.confidence < 1.0):
            raise ConfigurationError(
                f"confidence must lie in (0, 1), got {self.confidence!r}"
            )
        if self.energy_tolerance <= 0 or self.delay_tolerance <= 0:
            raise ConfigurationError("tolerances must be positive")
        if not (0.0 <= self.min_delivery_ratio <= 1.0):
            raise ConfigurationError(
                f"min_delivery_ratio must lie in [0, 1], got {self.min_delivery_ratio!r}"
            )

    @property
    def cell_count(self) -> int:
        """Number of (scenario, protocol) cells the campaign covers."""
        return len(self.scenarios) * len(self.protocols)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation (embedded in the campaign artifact)."""
        return {
            "scenarios": list(self.scenarios),
            "protocols": list(self.protocols),
            "replications": self.replications,
            "base_seed": self.base_seed,
            "horizon_s": self.horizon,
            "confidence": self.confidence,
            "grid_points_per_dimension": self.grid_points_per_dimension,
            "energy_tolerance": self.energy_tolerance,
            "delay_tolerance": self.delay_tolerance,
            "min_delivery_ratio": self.min_delivery_ratio,
        }


def _simulable_protocols() -> Tuple[str, ...]:
    """Registered protocols that have a simulated behaviour.

    Delegates to :func:`repro.simulation.mac.factory.available_mac_protocols`,
    so analytical-only models (user-registered protocols without a
    registered behaviour) are excluded.
    """
    return tuple(available_mac_protocols())


@dataclass(frozen=True)
class ReplicationMeasurement:
    """Metrics of one seeded simulation replication.

    Attributes:
        seed: The replication's simulation seed.
        energy: Measured mean ring-1 per-node power (J/s).
        delay: Measured mean end-to-end delay of the farthest delivering
            ring (s), or ``None`` when the replication delivered no packet.
        delivery_ratio: Fraction of generated packets delivered.
        generated: Packets generated.
        delivered: Packets delivered to the sink.
        dropped: Packets dropped at full queues.
    """

    seed: int
    energy: float
    delay: Optional[float]
    delivery_ratio: float
    generated: int
    delivered: int
    dropped: int

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready payload for the persistent result store.

        Every field round-trips exactly through JSON (floats keep their
        shortest round-tripping ``repr``), so a measurement read back from
        the store is indistinguishable from a freshly simulated one — the
        property resume/shard-merge byte-identity rests on.
        """
        return {
            "seed": self.seed,
            "energy": self.energy,
            "delay": self.delay,
            "delivery_ratio": self.delivery_ratio,
            "generated": self.generated,
            "delivered": self.delivered,
            "dropped": self.dropped,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ReplicationMeasurement":
        """Rebuild a measurement from its stored payload.

        Raises:
            StoreError: if the payload is missing fields or has the wrong
                shape (e.g. a record of another kind filed under this key).
        """
        try:
            delay = payload["delay"]
            return cls(
                seed=int(payload["seed"]),  # type: ignore[arg-type]
                energy=float(payload["energy"]),  # type: ignore[arg-type]
                delay=None if delay is None else float(delay),  # type: ignore[arg-type]
                delivery_ratio=float(payload["delivery_ratio"]),  # type: ignore[arg-type]
                generated=int(payload["generated"]),  # type: ignore[arg-type]
                delivered=int(payload["delivered"]),  # type: ignore[arg-type]
                dropped=int(payload["dropped"]),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as error:
            raise StoreError(f"malformed replication payload: {error!r}") from error


@dataclass(frozen=True)
class MetricCheck:
    """One tolerance gate of a campaign cell — pass/fail/skip as data.

    Attributes:
        metric: The gated metric name.
        status: ``"pass"``, ``"fail"`` or ``"skipped"``.
        observed: The simulated aggregate the gate looked at (``None`` when
            skipped for lack of data).
        reference: The analytical prediction (energy/delay) or the required
            floor (delivery ratio).
        tolerance: Allowed relative error, or ``None`` for floor checks.
        error: Achieved relative error, or ``None`` when not applicable.
        detail: Human-readable reason, filled for failures and skips.
    """

    metric: str
    status: str
    observed: Optional[float] = None
    reference: Optional[float] = None
    tolerance: Optional[float] = None
    error: Optional[float] = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in CHECK_STATUSES:
            raise ValidationError(
                f"check status must be one of {CHECK_STATUSES}, got {self.status!r}"
            )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "metric": self.metric,
            "status": self.status,
            "observed": self.observed,
            "reference": self.reference,
            "tolerance": self.tolerance,
            "error": self.error,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CampaignCell:
    """Everything the campaign learned about one (scenario, protocol) pair.

    Attributes:
        scenario: Scenario preset name.
        protocol: Canonical protocol name.
        feasible: Whether the bargaining game had a solution (only feasible
            cells are simulated).
        solve_error: Why the cell was not simulated, when infeasible.
        parameters: The Nash bargaining point's parameter vector.
        analytical_energy: Model-predicted ring-1 per-node power (J/s).
        analytical_delay: Model-predicted end-to-end delay (s).
        seeds: Replication seeds, in replication order.
        metrics: One :class:`MetricAggregate` per campaign metric.
        checks: The cell's tolerance gates.
        generated: Total packets generated across replications.
        delivered: Total packets delivered across replications.
        dropped: Total packets dropped across replications.
    """

    scenario: str
    protocol: str
    feasible: bool
    solve_error: str = ""
    parameters: Mapping[str, float] = field(default_factory=dict)
    analytical_energy: Optional[float] = None
    analytical_delay: Optional[float] = None
    seeds: Tuple[int, ...] = ()
    metrics: Mapping[str, MetricAggregate] = field(default_factory=dict)
    checks: Tuple[MetricCheck, ...] = ()
    generated: int = 0
    delivered: int = 0
    dropped: int = 0

    @property
    def passed(self) -> bool:
        """Whether the cell is feasible and no check failed."""
        return self.feasible and all(check.status != "fail" for check in self.checks)

    def check(self, metric: str) -> Optional[MetricCheck]:
        """The cell's check for one metric, or ``None`` if absent."""
        for check in self.checks:
            if check.metric == metric:
                return check
        return None

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation (the artifact's per-cell record)."""
        return {
            "scenario": self.scenario,
            "protocol": self.protocol,
            "feasible": self.feasible,
            "solve_error": self.solve_error,
            "parameters": dict(self.parameters),
            "analytical_energy_j_per_s": self.analytical_energy,
            "analytical_delay_s": self.analytical_delay,
            "seeds": list(self.seeds),
            "metrics": {name: agg.as_dict() for name, agg in self.metrics.items()},
            "checks": [check.as_dict() for check in self.checks],
            "generated": self.generated,
            "delivered": self.delivered,
            "dropped": self.dropped,
        }


@dataclass
class CampaignResult:
    """All cells of one campaign run, in (scenario-major) submission order.

    Attributes:
        spec: The campaign specification that produced the result.
        cells: One :class:`CampaignCell` per (scenario, protocol) pair.
    """

    spec: CampaignSpec
    cells: List[CampaignCell] = field(default_factory=list)

    @property
    def feasible_cells(self) -> List[CampaignCell]:
        """Cells whose game produced a solution (and were simulated)."""
        return [cell for cell in self.cells if cell.feasible]

    @property
    def failed_cells(self) -> List[CampaignCell]:
        """Feasible cells with at least one failed check."""
        return [cell for cell in self.cells if cell.feasible and not cell.passed]

    @property
    def passed(self) -> bool:
        """Whether every feasible cell passed all its checks."""
        return not self.failed_cells

    def cell(self, scenario: str, protocol: str) -> Optional[CampaignCell]:
        """The cell of one (scenario, protocol) pair, or ``None`` if absent."""
        protocol = canonical_name(protocol)
        for cell in self.cells:
            if cell.scenario == scenario and cell.protocol == protocol:
                return cell
        return None

    def check_counts(self) -> Dict[str, int]:
        """Number of checks per status across all cells."""
        counts = {status: 0 for status in CHECK_STATUSES}
        for cell in self.cells:
            for check in cell.checks:
                counts[check.status] += 1
        return counts

    def rows(self) -> List[Dict[str, object]]:
        """One flat row per cell, for tables and CSV export.

        Delegates to :func:`campaign_rows` over :meth:`as_dict`, so a CSV
        written at campaign time has exactly the columns of one derived
        later from the loaded artifact.
        """
        return campaign_rows(self.as_dict())

    def as_dict(self) -> Dict[str, object]:
        """The versioned artifact payload (see :mod:`repro.validation.artifacts`).

        Deliberately excludes wall-clock timing and runner identity so the
        artifact of a ``--workers N`` run is byte-identical to a serial one.
        """
        counts = self.check_counts()
        return {
            "schema": "repro.validation.campaign",
            "schema_version": 1,
            "spec": self.spec.as_dict(),
            "summary": {
                "cells": len(self.cells),
                "feasible_cells": len(self.feasible_cells),
                "failed_cells": len(self.failed_cells),
                "checks_pass": counts["pass"],
                "checks_fail": counts["fail"],
                "checks_skipped": counts["skipped"],
            },
            "cells": [cell.as_dict() for cell in self.cells],
        }


def campaign_rows(artifact: Mapping[str, object]) -> List[Dict[str, object]]:
    """Flatten a campaign payload into one row per cell (for CSV/tables).

    The single row schema shared by :meth:`CampaignResult.rows` and the
    artifact loader in :mod:`repro.validation.artifacts`.

    Args:
        artifact: A payload from ``CampaignResult.as_dict()`` or
            :func:`repro.validation.artifacts.load_campaign_dict`.

    Returns:
        Rows with identical columns across cells, blank where a cell has no
        data (infeasible cells, undefined intervals).
    """
    rows: List[Dict[str, object]] = []
    for cell in artifact["cells"]:  # type: ignore[index]
        metrics = cell.get("metrics", {})
        checks = {check["metric"]: check for check in cell.get("checks", ())}
        energy = metrics.get("energy", {})
        delay = metrics.get("delay", {})
        delivery = metrics.get("delivery_ratio", {})
        rows.append(
            {
                "scenario": cell["scenario"],
                "protocol": cell["protocol"],
                "feasible": cell["feasible"],
                "replications": len(cell.get("seeds", ())),
                "E_model": _blank(cell.get("analytical_energy_j_per_s")),
                "E_sim_mean": _blank(energy.get("mean")),
                "E_ci_lower": _blank(energy.get("ci_lower")),
                "E_ci_upper": _blank(energy.get("ci_upper")),
                "E_err": _blank(checks.get("energy", {}).get("error")),
                "L_model": _blank(cell.get("analytical_delay_s")),
                "L_sim_mean": _blank(delay.get("mean")),
                "L_ci_lower": _blank(delay.get("ci_lower")),
                "L_ci_upper": _blank(delay.get("ci_upper")),
                "L_err": _blank(checks.get("delay", {}).get("error")),
                "delivery": _blank(delivery.get("mean")),
                "status": _row_status(cell),
                "error": str(cell.get("solve_error", ""))[:80],
            }
        )
    return rows


def _blank(value: object) -> object:
    """CSV/table cell: the value, or an empty string for ``None``."""
    return "" if value is None else value


def _row_status(cell: Mapping[str, object]) -> str:
    if not cell["feasible"]:
        return "infeasible"
    failed = any(check["status"] == "fail" for check in cell.get("checks", ()))
    return "fail" if failed else "pass"


# ---------------------------------------------------------------------- #
# Execution
# ---------------------------------------------------------------------- #

#: Wire format of one replication job: (model, parameters, config).
_SimPayload = Tuple[object, Mapping[str, float], SimulationConfig]


def _simulate_payload(payload: _SimPayload) -> ReplicationMeasurement:
    """Run one seeded replication and extract its metrics.

    Module-level so process-pool workers can resolve it by reference.  A
    replication that delivers no packet yields ``delay=None`` instead of
    raising — zero delivery is a campaign finding, not a crash.
    """
    model, params, config = payload
    result = simulate_protocol(model, params, config)
    delivered_any = any(values for values in result.delays_by_ring.values())
    return ReplicationMeasurement(
        seed=config.seed,
        energy=result.bottleneck_ring_energy,
        delay=result.max_ring_delay() if delivered_any else None,
        delivery_ratio=result.delivery_ratio,
        generated=result.generated_packets,
        delivered=result.delivered_packets,
        dropped=result.dropped_packets,
    )


def _run_replications(
    payloads: Sequence[_SimPayload],
    runner: BatchRunner,
    store: Optional[object],
) -> List[ReplicationMeasurement]:
    """Run the replication grid, answering what the store already holds.

    Without a store this is a plain ordered fan-out.  With one, every
    payload is first looked up by its content key; only misses are
    dispatched to the executor, fresh measurements are written behind, and
    the combined list is reassembled in submission order — so the result
    is element-for-element identical to an uncached run.
    """
    if store is None:
        return runner.executor.map_ordered(_simulate_payload, payloads)

    from repro.store.keys import key_digest, replication_record_key

    measurements: List[Optional[ReplicationMeasurement]] = [None] * len(payloads)
    digests: List[str] = []
    fresh: List[_SimPayload] = []
    fresh_positions: List[int] = []
    for position, payload in enumerate(payloads):
        model, params, config = payload
        digest = key_digest(
            replication_record_key(model, params, config.horizon, config.seed)
        )
        digests.append(digest)
        stored = store.get(digest)  # type: ignore[attr-defined]
        if stored is not None:
            try:
                measurements[position] = ReplicationMeasurement.from_dict(stored)
                continue
            except StoreError:
                # Undecodable payload under a valid record: treat as a
                # miss, like the store's own corruption policy.
                pass
        fresh.append(payload)
        fresh_positions.append(position)
    def _persist(index: int, measurement: ReplicationMeasurement) -> None:
        # Write behind as each replication completes (not after the whole
        # fan-out): a campaign killed mid-stage keeps everything that
        # finished, which is what makes an interrupted run resumable.
        store.put(  # type: ignore[attr-defined]
            digests[fresh_positions[index]], measurement.as_dict(), kind="replication"
        )

    for position, measurement in zip(
        fresh_positions, runner.executor.map_ordered(_simulate_payload, fresh, _persist)
    ):
        measurements[position] = measurement
    return [measurement for measurement in measurements if measurement is not None]


def aggregate_measurements(
    spec: CampaignSpec,
    analytical_energy: float,
    analytical_delay: float,
    measurements: Sequence[ReplicationMeasurement],
) -> Tuple[Dict[str, MetricAggregate], Tuple[MetricCheck, ...]]:
    """Fold a cell's replication measurements into aggregates and checks.

    Pure function of its inputs (no I/O, no randomness), always folding in
    replication order — the property that makes campaign artifacts
    byte-identical across worker counts.

    Args:
        spec: The campaign specification (tolerances, confidence level).
        analytical_energy: Model-predicted ring-1 power (J/s).
        analytical_delay: Model-predicted end-to-end delay (s).
        measurements: The cell's replications, in replication order.

    Returns:
        ``(metrics, checks)``: one :class:`MetricAggregate` per campaign
        metric, and the cell's tolerance gates.

    Raises:
        ValidationError: if ``measurements`` is empty.
    """
    if not measurements:
        raise ValidationError("cannot aggregate a cell with no measurements")
    moments = {name: StreamingMoments() for name in CAMPAIGN_METRICS}
    for measurement in measurements:
        moments["energy"].add(measurement.energy)
        if measurement.delay is not None:
            moments["delay"].add(measurement.delay)
        moments["delivery_ratio"].add(measurement.delivery_ratio)
    metrics = {
        name: MetricAggregate.from_moments(name, moments[name], spec.confidence)
        for name in CAMPAIGN_METRICS
    }
    checks = (
        _relative_error_check(
            "energy", metrics["energy"], analytical_energy, spec.energy_tolerance
        ),
        _relative_error_check(
            "delay", metrics["delay"], analytical_delay, spec.delay_tolerance
        ),
        _delivery_check(metrics["delivery_ratio"], spec.min_delivery_ratio),
    )
    return metrics, checks


def _relative_error_check(
    metric: str, aggregate: MetricAggregate, reference: float, tolerance: float
) -> MetricCheck:
    """Gate ``|reference - mean| / mean <= tolerance`` (simulation as truth)."""
    if aggregate.mean is None:
        return MetricCheck(
            metric=metric,
            status="skipped",
            reference=reference,
            tolerance=tolerance,
            detail="no replication produced a sample (no delivered packets)",
        )
    if aggregate.mean == 0.0:
        return MetricCheck(
            metric=metric,
            status="skipped",
            observed=0.0,
            reference=reference,
            tolerance=tolerance,
            detail="simulated mean is zero; relative error undefined",
        )
    error = abs(reference - aggregate.mean) / aggregate.mean
    status = "pass" if error <= tolerance else "fail"
    detail = (
        ""
        if status == "pass"
        else f"relative error {error:.3f} exceeds tolerance {tolerance:g}"
    )
    return MetricCheck(
        metric=metric,
        status=status,
        observed=aggregate.mean,
        reference=reference,
        tolerance=tolerance,
        error=error,
        detail=detail,
    )


def _delivery_check(aggregate: MetricAggregate, floor: float) -> MetricCheck:
    """Gate ``mean delivery ratio >= floor``."""
    if aggregate.mean is None:
        return MetricCheck(
            metric="delivery_ratio",
            status="skipped",
            reference=floor,
            detail="no replication produced a sample",
        )
    status = "pass" if aggregate.mean >= floor else "fail"
    detail = (
        ""
        if status == "pass"
        else f"mean delivery ratio {aggregate.mean:.3f} below floor {floor:g}"
    )
    return MetricCheck(
        metric="delivery_ratio",
        status=status,
        observed=aggregate.mean,
        reference=floor,
        detail=detail,
    )


def run_campaign(
    spec: Optional[CampaignSpec] = None,
    runner: Optional[BatchRunner] = None,
    store: Optional[object] = None,
) -> CampaignResult:
    """Execute a Monte-Carlo validation campaign.

    Two batched stages share one runner: the (scenario × protocol) game
    solves go through the runner's :class:`~repro.runtime.batch.BatchRunner`
    machinery (solve cache, in-batch dedup), and the
    cells × replications simulation grid fans out over the *same* executor
    policy, so ``--workers`` accelerates both stages.

    Both stages are store-addressable: with a persistent result store
    attached, the solve stage reads through the runner's cache into the
    store, and every replication is looked up by its content key
    (:func:`repro.store.keys.replication_record_key`) before being
    simulated — only missing replications are dispatched, and fresh ones
    are written behind.  That is what makes an interrupted campaign
    resumable and a sharded one mergeable, byte-identically.

    Args:
        spec: The campaign specification (default: every scenario preset ×
            every simulable protocol, 5 replications).
        runner: Batch runner for the solve stage and executor for the
            replications; defaults to the serial cached runner.  Pass
            ``build_runner(workers=4)`` for a process pool — the resulting
            artifact stays byte-identical.
        store: Persistent result store for the replication stage; defaults
            to the store backing the runner's cache, if any (so a runner
            built with ``build_runner(store=...)`` campaigns end-to-end
            through it with no extra wiring).

    Returns:
        The :class:`CampaignResult`, one cell per (scenario, protocol) pair
        in scenario-major order.  Infeasible games, un-constructible models
        and out-of-tolerance cells are recorded as data; any non-infeasibility
        solver error is re-raised.
    """
    spec = spec if spec is not None else CampaignSpec()
    runner = runner if runner is not None else build_runner()
    if store is None and runner.cache is not None:
        store = runner.cache.store

    # Stage 1: solve every cell's bargaining game in one batch (cached,
    # deduplicated, construction failures and infeasibility as data).
    outcomes = runner.run(
        [
            SolveTask.build(
                protocol=protocol,
                scenario=scenario_preset(scenario_name).scenario,
                requirements=scenario_preset(scenario_name).requirements(),
                solver_options={"grid_points_per_dimension": spec.grid_points_per_dimension},
                tag=(scenario_name, protocol),
            )
            for scenario_name in spec.scenarios
            for protocol in spec.protocols
        ]
    )

    # Stage 2: fan every feasible cell's replications out over the executor.
    # ``pending`` keeps (scenario, protocol, model, params, analytical E/L,
    # seeds) per feasible cell, in submission order; ``placements`` records,
    # per grid cell, either the pending index or the finished infeasible
    # cell, so stage 3 can reassemble in submission order.
    pending: List[Tuple[str, str, object, Dict[str, float], float, float, Tuple[int, ...]]] = []
    placements: List[Tuple[str, object]] = []
    for outcome in outcomes:
        scenario_name, protocol = outcome.tag
        if outcome.ok:
            model = outcome.task.model
            params = model.coerce(outcome.solution.bargaining.point.parameters)
            seeds = tuple(
                replication_seed(spec.base_seed, scenario_name, protocol, replication)
                for replication in range(spec.replications)
            )
            placements.append(("sim", len(pending)))
            pending.append(
                (
                    scenario_name,
                    protocol,
                    model,
                    params,
                    model.node_energy(params, model.scenario.topology.bottleneck_ring),
                    model.system_latency(params),
                    seeds,
                )
            )
        else:
            # Build failure or infeasible game: the cell is data.
            placements.append(
                (
                    "cell",
                    CampaignCell(
                        scenario=scenario_name,
                        protocol=protocol,
                        feasible=False,
                        solve_error=outcome.error_message,
                    ),
                )
            )

    payloads: List[_SimPayload] = []
    for scenario_name, protocol, model, params, _, _, seeds in pending:
        for seed in seeds:
            payloads.append(
                (
                    model,
                    params,
                    SimulationConfig(horizon=spec.horizon, seed=seed),
                )
            )
    flat_measurements = _run_replications(payloads, runner, store)

    # Stage 3: aggregate per cell, in replication order.
    aggregated: List[CampaignCell] = []
    cursor = 0
    for scenario_name, protocol, model, params, energy, delay, seeds in pending:
        measurements = flat_measurements[cursor : cursor + len(seeds)]
        cursor += len(seeds)
        metrics, checks = aggregate_measurements(spec, energy, delay, measurements)
        aggregated.append(
            CampaignCell(
                scenario=scenario_name,
                protocol=protocol,
                feasible=True,
                parameters=dict(params),
                analytical_energy=energy,
                analytical_delay=delay,
                seeds=seeds,
                metrics=metrics,
                checks=checks,
                generated=sum(m.generated for m in measurements),
                delivered=sum(m.delivered for m in measurements),
                dropped=sum(m.dropped for m in measurements),
            )
        )

    # Reassemble in submission order.
    cells: List[CampaignCell] = []
    for disposition, payload in placements:
        if disposition == "sim":
            cells.append(aggregated[payload])  # type: ignore[index]
        else:
            cells.append(payload)  # type: ignore[arg-type]
    return CampaignResult(spec=spec, cells=cells)
