"""The benchmark regression gate (``tools/check_bench.py``)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_bench", REPO_ROOT / "tools" / "check_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_bench = _load_gate()


SPEEDUPS = {"dmac": 9.0, "lmac": 8.2, "scpmac": 14.2, "xmac": 11.0}


def artifact(tmp_path, speedups=SPEEDUPS, name="fresh.json", events_per_second=300000.0):
    payload = {
        "schema": "repro.bench.simulator",
        "schema_version": 1,
        "protocols": {},
        "batched": {
            protocol: {"events": 6000, "seconds": 1.0,
                       "events_per_second": events_per_second,
                       "speedup_vs_scalar": speedup}
            for protocol, speedup in speedups.items()
        },
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_gate(fresh, *extra):
    return check_bench.main(["--fresh", str(fresh), *extra])


class TestBatchedGate:
    """Every batched kernel's in-process speedup over the scalar reference."""

    def test_every_kernel_above_the_floor_passes(self, tmp_path, capsys):
        assert run_gate(artifact(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "OK   batched xmac: 11.0x vs scalar (floor 5x)" in out
        assert "OK   batched lmac: 8.2x vs scalar (floor 5x)" in out
        assert "all 4 gated entries within bounds" in out

    def test_absolute_throughput_is_not_gated(self, tmp_path):
        # A slow runner moves events/s, not the ratio of two engines timed
        # in one process.
        assert run_gate(artifact(tmp_path, events_per_second=1.0)) == 0

    @pytest.mark.parametrize("protocol", sorted(SPEEDUPS))
    def test_speedup_below_floor_fails(self, tmp_path, capsys, protocol):
        fresh = artifact(tmp_path, dict(SPEEDUPS, **{protocol: 3.0}))
        assert run_gate(fresh) == 1
        out = capsys.readouterr().out
        assert f"FAIL batched {protocol}: 3.0x vs scalar (floor 5x)" in out
        assert "bench gate: 1 failure(s)" in out

    def test_custom_speedup_floor(self, tmp_path):
        fresh = artifact(tmp_path, dict.fromkeys(SPEEDUPS, 6.0))
        assert run_gate(fresh, "--min-batched-speedup", "7.0") == 1
        assert run_gate(fresh, "--min-batched-speedup", "0") == 0

    def test_negative_floor_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="must be >= 0"):
            run_gate(artifact(tmp_path), "--min-batched-speedup", "-1")

    @pytest.mark.parametrize("floor", ["5", "0"])
    def test_protocol_missing_from_the_artifact_fails(self, tmp_path, capsys, floor):
        speedups = {name: value for name, value in SPEEDUPS.items() if name != "scpmac"}
        assert run_gate(artifact(tmp_path, speedups), "--min-batched-speedup", floor) == 1
        assert "FAIL batched scpmac: no usable speedup_vs_scalar" in capsys.readouterr().out

    def test_artifact_without_batched_section_fails(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": "repro.bench.simulator", "schema_version": 1}))
        assert run_gate(path) == 1


def service_artifact(tmp_path, name, warm_rps, **overrides):
    payload = {
        "schema": "repro.bench.service",
        "schema_version": 1,
        "grid_points": 16,
        "units": 3,
        "workers": 2,
        "cold_latency_seconds": 0.8,
        "warm_requests": 100,
        "warm_seconds": 0.07,
        "warm_requests_per_second": warm_rps,
        **overrides,
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestServiceGate:
    """The ``--service`` artifact: absolute warm-hit throughput floor."""

    def test_above_floor_passes(self, tmp_path, capsys):
        fresh = artifact(tmp_path)
        service = service_artifact(tmp_path, "service.json", 1400.0)
        assert run_gate(fresh, "--service", str(service)) == 0
        out = capsys.readouterr().out
        assert "OK   service: warm hits 1,400 req/s" in out
        assert "all 5 gated entries within bounds" in out

    def test_below_floor_fails(self, tmp_path, capsys):
        fresh = artifact(tmp_path)
        service = service_artifact(tmp_path, "service.json", 10.0)
        assert run_gate(fresh, "--service", str(service)) == 1
        assert "FAIL service" in capsys.readouterr().out

    def test_custom_floor(self, tmp_path):
        fresh = artifact(tmp_path)
        service = service_artifact(tmp_path, "service.json", 50.0)
        args = ["--service", str(service), "--min-service-warm-rps"]
        assert run_gate(fresh, *args, "100") == 1
        assert run_gate(fresh, *args, "40") == 0
        assert run_gate(fresh, *args, "0") == 0  # disabled

    def test_missing_throughput_field_fails(self, tmp_path, capsys):
        fresh = artifact(tmp_path)
        service = service_artifact(
            tmp_path, "service.json", "not-a-number"
        )
        assert run_gate(fresh, "--service", str(service)) == 1
        assert "no usable warm_requests_per_second" in capsys.readouterr().out

    def test_wrong_service_schema_rejected(self, tmp_path):
        fresh = artifact(tmp_path)
        with pytest.raises(SystemExit, match="artifact"):
            run_gate(fresh, "--service", str(fresh))

    def test_missing_service_artifact_rejected(self, tmp_path):
        fresh = artifact(tmp_path)
        with pytest.raises(SystemExit, match="not found"):
            run_gate(fresh, "--service", str(tmp_path / "nope.json"))


class TestArtifactValidation:
    def test_missing_fresh_artifact(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            run_gate(tmp_path / "nope.json")

    def test_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "something.else"}))
        with pytest.raises(SystemExit, match="artifact"):
            run_gate(bad)

    def test_wrong_schema_version(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro.bench.simulator", "schema_version": 2}))
        with pytest.raises(SystemExit, match="schema_version 2, expected 1"):
            run_gate(bad)

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        with pytest.raises(SystemExit, match="JSON"):
            run_gate(bad)
