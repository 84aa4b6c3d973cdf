"""Uniform result container of the declarative experiment pipeline.

Every workload kind — a single game solve, a requirement sweep, the
scenario suite, a figure reproduction, a model-vs-simulator check, a
Monte-Carlo campaign — returns the same :class:`ResultSet`: tagged flat
rows (one per work unit), run metadata, the SHA-256 provenance hash of
the spec that produced it, and telemetry on how the run went.  The
kind-specific rich objects stay reachable for callers that need more than
rows: ``records[i].value`` holds a unit's ``GameSolution`` (or ``None``
when the game had no solution), ``ValidationReport`` or ``CampaignCell``,
and ``raw`` holds the campaign's ``CampaignResult``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Union

from repro.api.plan import WorkUnit
from repro.api.spec import ExperimentSpec

#: Version of the ``ResultSet.as_dict()`` payload.
RESULTSET_SCHEMA = "repro.api.resultset"
RESULTSET_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ResultRecord:
    """Outcome of one work unit.

    Attributes:
        unit: The work unit this record answers.
        row: Flat, printable/CSV-ready row (tagged with scenario/protocol).
        ok: Whether the unit produced a result (infeasible cells and failed
            checks are *recorded*, not raised, for the multi-unit kinds).
        error: Human-readable reason when ``ok`` is false (or when a
            campaign cell failed a check).
        value: The kind-specific rich result: the ``GameSolution`` of a
            game-solving unit (``None`` when it has none), the
            ``ValidationReport`` of a ``validate`` unit, or the
            ``CampaignCell`` of a ``campaign`` unit.
    """

    unit: WorkUnit
    row: Mapping[str, object]
    ok: bool = True
    error: str = ""
    value: Any = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "row", dict(self.row))


@dataclass(frozen=True)
class ResultSet:
    """All records of one experiment run, plus metadata and provenance.

    Attributes:
        spec: The spec that was run.
        records: One :class:`ResultRecord` per executed work unit, in plan
            order.
        metadata: What was computed beyond the rows (the plan's
            description) — written into the artifact but *excluded* from
            the provenance hash.
        raw: The ``CampaignResult`` of a ``campaign`` run (the campaign
            artifact's schema); ``None`` for every other kind.
        telemetry: How this process ran the spec (runner description,
            and this run's own cache and store counters).  Never
            serialized, so a warm, resumed, or sharded-then-merged run of
            a spec writes bytes identical to a cold serial run.
    """

    spec: ExperimentSpec
    records: List[ResultRecord] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)
    raw: Any = None
    telemetry: Dict[str, object] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        """The workload kind that produced this result."""
        return self.spec.kind

    @property
    def provenance(self) -> str:
        """SHA-256 of the canonical spec (runtime policy excluded)."""
        return self.spec.spec_hash()

    @property
    def ok_records(self) -> List[ResultRecord]:
        """Records whose unit produced a result."""
        return [record for record in self.records if record.ok]

    @property
    def failed_records(self) -> List[ResultRecord]:
        """Records whose unit was infeasible or failed a check."""
        return [record for record in self.records if not record.ok]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def rows(self) -> List[Dict[str, object]]:
        """One tagged flat row per record, in plan order.

        Rows of mixed shapes are fine: the reporting layer blank-fills the
        union of keys (see :func:`repro.analysis.reporting.format_table`).
        """
        return [dict(record.row) for record in self.records]

    def summary(self) -> Dict[str, object]:
        """Compact run summary (counts, kind, provenance)."""
        return {
            "kind": self.kind,
            "name": self.spec.name,
            "units": len(self.records),
            "ok": len(self.ok_records),
            "failed": len(self.failed_records),
            "spec_sha256": self.provenance,
        }

    def as_dict(self) -> Dict[str, object]:
        """Versioned, JSON-ready payload of the whole result (telemetry
        excluded: the artifact records what was computed, not how)."""
        return {
            "schema": RESULTSET_SCHEMA,
            "schema_version": RESULTSET_SCHEMA_VERSION,
            "kind": self.kind,
            "spec": self.spec.to_dict(),
            "spec_sha256": self.provenance,
            "summary": self.summary(),
            "metadata": dict(self.metadata),
            "rows": self.rows(),
        }

    def json_text(self) -> str:
        """The versioned payload as canonical JSON text.

        This is the one serialization of a result: ``to_json`` writes it and
        the experiment service serves it verbatim, so a spec POSTed to the
        server returns bytes identical to ``repro run spec.json --out``.
        """
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def to_json(self, path: Union[str, Path]) -> Path:
        """Write the versioned payload to ``path`` and return it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.json_text(), encoding="utf-8")
        return path

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the rows to a CSV file and return the path."""
        from repro.analysis.reporting import write_csv

        return write_csv(self.rows(), path)
