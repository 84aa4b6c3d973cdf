"""Monte-Carlo validation campaigns: seeds, cells, gates and artifacts.

:mod:`repro.analysis.validation` compares the analytical model against the
simulator at *one* seed and *one* configuration — a spot check.  A campaign
scales that into a statistically quantified sweep: for every
(scenario preset × protocol) cell, the ``campaign`` spec kind
(:mod:`repro.api.engine`) solves the bargaining game, then runs R
independently seeded packet-level replications at the Nash bargaining point
(both stages through the shared :class:`~repro.runtime.batch.BatchRunner`'s
memoized fan-out).  This module holds what that run is made of: the
replication seeds, :func:`simulate_replications` with its ``REPLICATIONS``
memo, the aggregation of each metric with streaming Welford moments and
Student-t confidence intervals, the per-metric tolerance gates, and the
:class:`CampaignCell` / :class:`CampaignResult` records.

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
run, and each cell is the same whichever plan or shard it runs in
(``tests/validation/test_campaign.py`` and CI's ``specs`` job assert it).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, ValidationError
from repro.protocols.registry import canonical_name
from repro.runtime import BatchRunner, Memo
from repro.runtime.keys import Key, replication_record_key
from repro.simulation.runner import ReplicationMeasurement, SimulationConfig, simulate_protocol
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
        spec: The artifact's ``spec`` section: the scenarios, protocols and
            campaign settings of the run.
        cells: One :class:`CampaignCell` per (scenario, protocol) pair.
    """

    spec: Mapping[str, object]
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
            "spec": dict(self.spec),
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

    Module-level so process-pool workers can resolve it by reference.
    """
    model, params, config = payload
    result = simulate_protocol(model, params, config)
    return ReplicationMeasurement.from_result(result, config.seed)


def _replication_key(payload: _SimPayload, fingerprint: Callable[[Any], Any]) -> Key:
    """The replication key of a payload whose config sets only horizon and seed.

    The key names the horizon and the seed of the run, not its other
    simulation settings, so a payload that changes those is refused rather
    than filed under the key of a default run.
    """
    model, parameters, config = payload
    if config != SimulationConfig(horizon=config.horizon, seed=config.seed):
        raise ConfigurationError(
            "a remembered replication may set only the horizon and the seed of "
            "its simulation; run other simulation settings with the cache off"
        )
    return replication_record_key(model, parameters, config.horizon, config.seed, fingerprint)


#: A replication is remembered as its measurement, under its replication key.
REPLICATIONS = Memo(
    kind="replication",
    key=_replication_key,
    encode=ReplicationMeasurement.as_dict,
    decode=ReplicationMeasurement.from_dict,
)


def simulate_replications(
    payloads: Sequence[_SimPayload], runner: BatchRunner
) -> List[ReplicationMeasurement]:
    """Simulate every replication through the runner's memoized fan-out.

    Args:
        payloads: ``(model, coerced parameters, config)`` per replication.
        runner: The runner whose executor runs the simulations and whose
            cache (and store, if any) remembers them.

    Returns:
        One measurement per payload, in submission order.
    """
    # Simulations draw from numpy.random: import it before a pool forks,
    # once, instead of in every worker.
    import numpy.random  # noqa: F401

    return runner.fan_out(_simulate_payload, payloads, REPLICATIONS)


def aggregate_measurements(
    settings: Any,
    analytical_energy: float,
    analytical_delay: float,
    measurements: Sequence[ReplicationMeasurement],
) -> Tuple[Dict[str, MetricAggregate], Tuple[MetricCheck, ...]]:
    """Fold a cell's replication measurements into aggregates and checks.

    Pure function of its inputs (no I/O, no randomness), always folding in
    replication order — the property that makes campaign artifacts
    byte-identical across worker counts.

    Args:
        settings: Any object with the campaign's ``confidence``,
            ``energy_tolerance``, ``delay_tolerance`` and
            ``min_delivery_ratio`` (the ``campaign`` kind passes its spec's
            :class:`~repro.api.spec.CampaignSettings`).
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
        name: MetricAggregate.from_moments(name, moments[name], settings.confidence)
        for name in CAMPAIGN_METRICS
    }
    checks = (
        _relative_error_check(
            "energy", metrics["energy"], analytical_energy, settings.energy_tolerance
        ),
        _relative_error_check(
            "delay", metrics["delay"], analytical_delay, settings.delay_tolerance
        ),
        _delivery_check(metrics["delivery_ratio"], settings.min_delivery_ratio),
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
