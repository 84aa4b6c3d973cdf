"""Artifact persistence and report generation from campaign results."""

from __future__ import annotations

import json

import pytest

from repro.api import ExperimentSpec, run
from repro.exceptions import ValidationError
from repro.runtime import build_runner
from repro.validation import (
    CAMPAIGN_SCHEMA,
    CAMPAIGN_SCHEMA_VERSION,
    campaign_rows,
    campaign_to_json,
    load_campaign_dict,
    write_campaign,
)
from repro.validation.report import GENERATED_MARKER, main, render_validation_markdown

FAST_SPEC = (
    ExperimentSpec.experiment("campaign")
    .with_scenarios("paper-default")
    .with_protocols("xmac")
    .with_campaign(replications=2, horizon=300.0)
    .with_solver(grid_points=15)
)


@pytest.fixture(scope="module")
def result():
    return run(FAST_SPEC, runner=build_runner(workers=1, use_cache=False)).raw


class TestArtifacts:
    def test_round_trip_preserves_payload(self, result, tmp_path):
        path = write_campaign(result, tmp_path / "campaign.json")
        payload = load_campaign_dict(path)
        assert payload == result.as_dict()
        assert payload["schema"] == CAMPAIGN_SCHEMA
        assert payload["schema_version"] == CAMPAIGN_SCHEMA_VERSION

    def test_serialization_is_deterministic(self, result):
        assert campaign_to_json(result) == campaign_to_json(result)
        assert campaign_to_json(result).endswith("\n")

    def test_missing_artifact_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_campaign_dict(tmp_path / "absent.json")

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something.else"}), encoding="utf-8")
        with pytest.raises(ValidationError):
            load_campaign_dict(path)

    def test_wrong_version_rejected(self, result, tmp_path):
        payload = result.as_dict()
        payload["schema_version"] = CAMPAIGN_SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError):
            load_campaign_dict(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_campaign_dict(path)

    def test_rows_share_columns(self, result):
        rows = campaign_rows(result.as_dict())
        assert len(rows) == len(result.cells)
        columns = list(rows[0].keys())
        assert all(list(row.keys()) == columns for row in rows)

    def test_result_rows_equal_artifact_rows(self, result):
        # One row schema: a CSV written at campaign time matches a CSV
        # derived later from the loaded artifact.
        assert result.rows() == campaign_rows(result.as_dict())


class TestReport:
    def test_rendering_is_pure_and_marked(self, result):
        payload = result.as_dict()
        page = render_validation_markdown(payload)
        assert page == render_validation_markdown(payload)
        assert GENERATED_MARKER in page
        assert "`paper-default`" in page
        assert "Student-t" in page

    def test_main_writes_and_checks(self, result, tmp_path):
        artifact = write_campaign(result, tmp_path / "campaign.json")
        output = tmp_path / "validation.md"
        assert main(["--artifact", str(artifact), "--output", str(output)]) == 0
        assert GENERATED_MARKER in output.read_text(encoding="utf-8")
        assert main(["--artifact", str(artifact), "--output", str(output), "--check"]) == 0

    def test_main_check_detects_staleness(self, result, tmp_path):
        artifact = write_campaign(result, tmp_path / "campaign.json")
        output = tmp_path / "validation.md"
        output.write_text("# stale\n", encoding="utf-8")
        assert main(["--artifact", str(artifact), "--output", str(output), "--check"]) == 1

    def test_committed_artifact_regenerates_committed_page(self):
        # The acceptance gate CI enforces: docs/validation.md is exactly the
        # rendering of docs/validation_campaign.json.
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        payload = load_campaign_dict(root / "docs" / "validation_campaign.json")
        on_disk = (root / "docs" / "validation.md").read_text(encoding="utf-8")
        assert on_disk == render_validation_markdown(payload)
