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


def artifact(tmp_path, name, throughputs, batched=None):
    payload = {
        "schema": "repro.bench.simulator",
        "schema_version": 1,
        "protocols": {
            protocol: {"events": 1000, "seconds": 1.0, "events_per_second": value,
                       "delivered": 10}
            for protocol, value in throughputs.items()
        },
    }
    if batched is not None:
        payload["batched"] = {
            protocol: {"events": 6000, "seconds": 1.0, "events_per_second": value,
                       "speedup_vs_scalar": speedup}
            for protocol, (value, speedup) in batched.items()
        }
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_gate(baseline, fresh, *extra):
    return check_bench.main(
        ["--baseline", str(baseline), "--fresh", str(fresh), *extra]
    )


class TestGate:
    def test_identical_passes(self, tmp_path, capsys):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0, "lmac": 50000.0})
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 30000.0, "lmac": 50000.0})
        assert run_gate(base, fresh) == 0
        assert "all 2 gated entries within bounds" in capsys.readouterr().out

    def test_noise_within_floor_passes(self, tmp_path):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 0.8 * 30000.0})
        assert run_gate(base, fresh) == 0

    def test_regression_below_floor_fails(self, tmp_path, capsys):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0, "lmac": 50000.0})
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 0.5 * 30000.0, "lmac": 50000.0})
        assert run_gate(base, fresh) == 1
        out = capsys.readouterr().out
        assert "FAIL xmac" in out
        assert "OK   lmac" in out

    def test_speedup_only_warns(self, tmp_path, capsys):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 2.0 * 30000.0})
        assert run_gate(base, fresh) == 0
        assert "WARN xmac" in capsys.readouterr().out

    def test_protocol_missing_from_fresh_fails(self, tmp_path, capsys):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0, "lmac": 50000.0})
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 30000.0})
        assert run_gate(base, fresh) == 1
        assert "FAIL lmac" in capsys.readouterr().out

    def test_new_protocol_does_not_gate(self, tmp_path, capsys):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 30000.0, "scpmac": 1.0})
        assert run_gate(base, fresh) == 0
        assert "NOTE scpmac" in capsys.readouterr().out

    def test_custom_thresholds(self, tmp_path):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 0.8 * 30000.0})
        assert run_gate(base, fresh, "--fail-below", "0.9") == 1


class TestBatchedGate:
    """The ``batched`` section: relative regression + absolute speedup floor."""

    def test_identical_batched_passes(self, tmp_path, capsys):
        stats = {"xmac": (300000.0, 10.0), "lmac": (400000.0, 6.5)}
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0}, batched=stats)
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 30000.0}, batched=stats)
        assert run_gate(base, fresh) == 0
        out = capsys.readouterr().out
        assert "OK   batched/xmac" in out
        assert "OK   batched xmac: 10.0x vs scalar" in out
        assert "all 3 gated entries within bounds" in out

    def test_batched_throughput_regression_fails(self, tmp_path, capsys):
        base = artifact(
            tmp_path, "base.json", {"xmac": 30000.0}, batched={"xmac": (300000.0, 10.0)}
        )
        fresh = artifact(
            tmp_path, "fresh.json", {"xmac": 30000.0}, batched={"xmac": (100000.0, 10.0)}
        )
        assert run_gate(base, fresh) == 1
        assert "FAIL batched/xmac" in capsys.readouterr().out

    def test_speedup_below_floor_fails(self, tmp_path, capsys):
        base = artifact(
            tmp_path, "base.json", {"xmac": 30000.0}, batched={"xmac": (300000.0, 10.0)}
        )
        fresh = artifact(
            tmp_path, "fresh.json", {"xmac": 30000.0}, batched={"xmac": (300000.0, 3.0)}
        )
        assert run_gate(base, fresh) == 1
        assert "FAIL batched xmac: 3.0x vs scalar (floor 5x)" in capsys.readouterr().out

    def test_custom_speedup_floor(self, tmp_path):
        base = artifact(
            tmp_path, "base.json", {"xmac": 30000.0}, batched={"xmac": (300000.0, 6.0)}
        )
        fresh = artifact(
            tmp_path, "fresh.json", {"xmac": 30000.0}, batched={"xmac": (300000.0, 6.0)}
        )
        assert run_gate(base, fresh, "--min-batched-speedup", "7.0") == 1
        assert run_gate(base, fresh, "--min-batched-speedup", "0") == 0

    def test_batched_missing_from_fresh_fails(self, tmp_path, capsys):
        base = artifact(
            tmp_path, "base.json", {"xmac": 30000.0}, batched={"xmac": (300000.0, 10.0)}
        )
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 30000.0})
        assert run_gate(base, fresh) == 1
        assert "FAIL batched/xmac: baseline has it" in capsys.readouterr().out

    def test_artifact_without_batched_section_still_gates_scalar(self, tmp_path):
        # Pre-batched artifacts (no "batched" key) stay valid inputs.
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 30000.0})
        assert run_gate(base, fresh) == 0

    def test_fresh_speedup_gates_even_without_baseline_entry(self, tmp_path, capsys):
        # A brand-new batched protocol has no baseline to compare against,
        # but its absolute speedup floor applies from the first run.
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        fresh = artifact(
            tmp_path, "fresh.json", {"xmac": 30000.0}, batched={"lmac": (300000.0, 2.0)}
        )
        assert run_gate(base, fresh) == 1
        assert "FAIL batched lmac" in capsys.readouterr().out

    def test_per_protocol_floor_overrides_global(self, tmp_path, capsys):
        # dmac at 3.5x fails the global 5x floor but passes its own 3x one;
        # xmac keeps the global floor in the same run.
        stats = {"dmac": (300000.0, 3.5), "xmac": (300000.0, 10.0)}
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0}, batched=stats)
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 30000.0}, batched=stats)
        assert run_gate(base, fresh) == 1
        assert run_gate(base, fresh, "--batched-speedup-floor", "dmac=3") == 0
        out = capsys.readouterr().out
        assert "OK   batched dmac: 3.5x vs scalar (floor 3x)" in out
        assert "OK   batched xmac: 10.0x vs scalar (floor 5x)" in out

    def test_per_protocol_floor_of_zero_disables_only_that_protocol(self, tmp_path):
        stats = {"dmac": (300000.0, 1.5), "xmac": (300000.0, 10.0)}
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0}, batched=stats)
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 30000.0}, batched=stats)
        assert run_gate(base, fresh, "--batched-speedup-floor", "dmac=0") == 0

    def test_floored_protocol_missing_from_fresh_fails(self, tmp_path, capsys):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 30000.0})
        assert (
            run_gate(base, fresh, "--batched-speedup-floor", "scpmac=3") == 1
        )
        assert "floored protocol missing" in capsys.readouterr().out

    def test_malformed_floor_spec_rejected(self, tmp_path):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 30000.0})
        for spec in ("dmac", "=3", "dmac=three", "dmac=-1"):
            with pytest.raises(SystemExit):
                run_gate(base, fresh, "--batched-speedup-floor", spec)


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
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 30000.0})
        service = service_artifact(tmp_path, "service.json", 1400.0)
        assert run_gate(base, fresh, "--service", str(service)) == 0
        out = capsys.readouterr().out
        assert "OK   service: warm hits 1,400 req/s" in out
        assert "all 2 gated entries within bounds" in out

    def test_below_floor_fails(self, tmp_path, capsys):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 30000.0})
        service = service_artifact(tmp_path, "service.json", 10.0)
        assert run_gate(base, fresh, "--service", str(service)) == 1
        assert "FAIL service" in capsys.readouterr().out

    def test_custom_floor(self, tmp_path):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 30000.0})
        service = service_artifact(tmp_path, "service.json", 50.0)
        args = ["--service", str(service), "--min-service-warm-rps"]
        assert run_gate(base, fresh, *args, "100") == 1
        assert run_gate(base, fresh, *args, "40") == 0
        assert run_gate(base, fresh, *args, "0") == 0  # disabled

    def test_missing_throughput_field_fails(self, tmp_path, capsys):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 30000.0})
        service = service_artifact(
            tmp_path, "service.json", "not-a-number"
        )
        assert run_gate(base, fresh, "--service", str(service)) == 1
        assert "no usable warm_requests_per_second" in capsys.readouterr().out

    def test_wrong_service_schema_rejected(self, tmp_path):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 30000.0})
        with pytest.raises(SystemExit, match="artifact"):
            run_gate(base, fresh, "--service", str(base))

    def test_missing_service_artifact_rejected(self, tmp_path):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        fresh = artifact(tmp_path, "fresh.json", {"xmac": 30000.0})
        with pytest.raises(SystemExit, match="not found"):
            run_gate(base, fresh, "--service", str(tmp_path / "nope.json"))


class TestArtifactValidation:
    def test_missing_fresh_artifact(self, tmp_path):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        with pytest.raises(SystemExit, match="not found"):
            run_gate(base, tmp_path / "nope.json")

    def test_wrong_schema(self, tmp_path):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "something.else"}))
        with pytest.raises(SystemExit, match="artifact"):
            run_gate(base, bad)

    def test_invalid_json(self, tmp_path):
        base = artifact(tmp_path, "base.json", {"xmac": 30000.0})
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        with pytest.raises(SystemExit, match="JSON"):
            run_gate(base, bad)


class TestCommittedBaseline:
    def test_baseline_artifact_is_valid(self):
        payload = check_bench.load_artifact(
            REPO_ROOT / "benchmarks" / "BENCH_simulator.json"
        )
        throughputs = check_bench.throughputs(payload)
        assert {"xmac", "dmac", "lmac", "scpmac"} <= set(throughputs)
        assert all(value > 0 for value in throughputs.values())

    def test_baseline_batched_section_meets_the_floor(self):
        payload = check_bench.load_artifact(
            REPO_ROOT / "benchmarks" / "BENCH_simulator.json"
        )
        batched = check_bench.batched_stats(payload)
        # All four protocols batch since the engine-completion PR.
        assert {"xmac", "dmac", "lmac", "scpmac"} <= set(batched)
        # The acceptance bars recorded in the committed baseline itself:
        # >=5x for the original kernels, >=3x for the fresh dmac/scpmac ones.
        for name, row in batched.items():
            floor = 3.0 if name in ("dmac", "scpmac") else 5.0
            assert row["speedup_vs_scalar"] >= floor, (name, row)

    def test_baseline_gates_against_itself(self, capsys):
        baseline = REPO_ROOT / "benchmarks" / "BENCH_simulator.json"
        assert run_gate(baseline, baseline) == 0
