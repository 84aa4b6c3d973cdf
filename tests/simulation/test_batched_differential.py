"""Differential harness: the production path is bit-identical to the reference.

Every simulation runs on the batched engine (:mod:`repro.simulation.batched`
behind ``simulate_protocol``); the scalar per-event simulator of
``tests/scalar_reference/`` (``simulate_scalar``) is the reference it must
reproduce: every metric of every replication — per-node power, per-ring
delay lists, packet and channel counters — must match bit for bit at the
same seed.  This module enforces that three ways:

* a seeded fuzzer sweeps the **full matrix** — every preset × every
  protocol (xmac, lmac, dmac, scpmac) × fuzzed (seed, horizon, sampling
  period) — as ~200 cases; the first :data:`FAST_CASES` run in tier-1
  (covering all four protocols), the full sweep is marked ``slow``;
* a campaign identity test proves whole campaign artifacts (JSON bytes
  included) do not move when the replications run on the reference, and
  every replication a ``validate`` or ``campaign`` spec runs equals the
  reference's run of it;
* edge cases both simulators must agree on: horizons shorter than one duty
  cycle, single replications, R=0 — and the named refusal of a protocol
  without a simulator.

Floats are compared with ``==`` (bit-equality for the NaN-free quantities
the simulator produces); mismatches are reported in ``float.hex`` so a
one-ulp drift is visible in the failure message, together with the exact
``(preset, protocol, seed, horizon, period)`` tuple and a one-line repro
command.  Failing tuples are also appended to
:data:`FAILURE_LOG` (``differential-failures.txt``) so CI can upload them
as an artifact.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import ExperimentSpec, run
from repro.exceptions import SimulationError
from repro.network.topology import RingTopology
from repro.protocols.registry import create_protocol
from repro.scenario import Scenario
from repro.scenarios.presets import scenario_preset, scenario_presets
from repro.simulation import (
    SimulationConfig,
    simulate_protocol,
    simulate_protocol_batched,
)
from repro.validation import campaign
from scalar_reference import simulate_scalar

#: Mid-box parameter vectors, one per protocol (the bench's choices).
PROTOCOL_PARAMS = {
    "xmac": {"wakeup_interval": 0.3},
    "dmac": {"frame_length": 1.0},
    "lmac": {"slot_length": 0.02, "slot_count": 9.0},
    "scpmac": {"poll_interval": 0.3},
}
PROTOCOLS = tuple(sorted(PROTOCOL_PARAMS))
#: The scalar reference and the production path, by the engine each runs on.
DRIVERS = pytest.mark.parametrize(
    "simulate", (simulate_scalar, simulate_protocol), ids=("scalar", "batched")
)

#: Fields of SimulationResult compared bit-for-bit.
_COMPARED_FIELDS = (
    "protocol",
    "parameters",
    "horizon",
    "node_power",
    "ring_power",
    "delays_by_ring",
    "generated_packets",
    "delivered_packets",
    "dropped_packets",
    "channel_transmissions",
    "channel_deferrals",
    "processed_events",
)


def _hex(value):
    """Floats as hex (exact), everything else as repr."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {key: _hex(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_hex(item) for item in value]
    return repr(value)


def assert_bit_identical(scalar, batched, context=""):
    """Assert two SimulationResults match field by field, bit for bit."""
    for field in _COMPARED_FIELDS:
        left = getattr(scalar, field)
        right = getattr(batched, field)
        assert left == right, (
            f"{context}: {field} diverged\n"
            f"  scalar:  {_hex(left)}\n"
            f"  batched: {_hex(right)}"
        )


def _traffic_scenario(preset_name: str, period: float) -> Scenario:
    """A preset's environment with a sampling period that produces traffic.

    Most presets sample once an hour, which generates nothing at the short
    horizons the fuzzer uses — the replacement keeps the preset's topology,
    radio and frame sizes and only raises the traffic rate.
    """
    preset = scenario_preset(preset_name)
    return dataclasses.replace(preset.scenario, sampling_rate=1.0 / period)


#: Rounds of the full matrix: every preset × every protocol per round, with
#: fuzzed seeds/horizons/periods.  8 presets × 4 protocols × 6 rounds = 192
#: cases.
MATRIX_ROUNDS = 6

#: Where failing repro tuples are appended (one JSON object per line); CI
#: uploads this file as an artifact when the sweep fails.
FAILURE_LOG = Path("differential-failures.txt")


def _generate_cases():
    """The deterministic full-matrix sweep; the module-level seed pins it.

    Cases are ordered preset-major / protocol-minor within each round, so
    the tier-1 prefix (:data:`FAST_CASES`) already covers all four
    protocols across several presets.
    """
    preset_names = sorted(preset.name for preset in scenario_presets())
    rng = np.random.default_rng(202608)
    cases = []
    index = 0
    for _ in range(MATRIX_ROUNDS):
        for preset in preset_names:
            for protocol in PROTOCOLS:
                seed = int(rng.integers(0, 2**31))
                horizon = float(rng.choice((60.0, 90.0, 150.0, 240.0)))
                period = float(rng.choice((30.0, 60.0, 120.0)))
                cases.append(
                    pytest.param(
                        preset,
                        protocol,
                        seed,
                        horizon,
                        period,
                        id=f"{index:03d}-{preset}-{protocol}-s{seed}",
                    )
                )
                index += 1
    return cases


CASES = _generate_cases()
#: Tier-1 subset: enough to catch a broken invariant on every push without
#: paying for the full sweep; covers all four protocols (matrix order).
FAST_CASES = CASES[:20]


def _run_both(preset, protocol, seed, horizon, period):
    scenario = _traffic_scenario(preset, period)
    model = create_protocol(protocol, scenario)
    params = PROTOCOL_PARAMS[protocol]
    config = SimulationConfig(horizon=horizon, seed=seed)
    return simulate_scalar(model, params, config), simulate_protocol(model, params, config)


def _check_case(preset, protocol, seed, horizon, period):
    """Run one matrix case; on failure, log the repro tuple and command."""
    case = {
        "preset": preset,
        "protocol": protocol,
        "seed": seed,
        "horizon": horizon,
        "period": period,
    }
    repro = (
        "PYTHONPATH=src python -m pytest "
        "tests/simulation/test_batched_differential.py "
        f"-m '' -k '{preset}-{protocol}-s{seed}'"
    )
    context = f"case {case!r}\n  repro: {repro}"
    try:
        scalar, batched = _run_both(preset, protocol, seed, horizon, period)
        assert_bit_identical(scalar, batched, context=context)
    except AssertionError:
        with FAILURE_LOG.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(case, sort_keys=True) + "\n")
        raise


class TestFuzzedIdentityFast:
    """Tier-1 subset of the differential sweep."""

    @pytest.mark.parametrize("preset,protocol,seed,horizon,period", FAST_CASES)
    def test_bit_identical(self, preset, protocol, seed, horizon, period):
        _check_case(preset, protocol, seed, horizon, period)

    def test_fast_subset_covers_every_protocol(self):
        covered = {case.values[1] for case in FAST_CASES}
        assert covered == set(PROTOCOLS)


@pytest.mark.slow
class TestFuzzedIdentityFull:
    """The full matrix sweep (deselected by default; ``-m slow`` runs it)."""

    @pytest.mark.parametrize("preset,protocol,seed,horizon,period", CASES[len(FAST_CASES):])
    def test_bit_identical(self, preset, protocol, seed, horizon, period):
        _check_case(preset, protocol, seed, horizon, period)


class TestCampaignIdentity:
    """Campaign results do not depend on which driver ran the replications."""

    SPEC = (
        ExperimentSpec.experiment("campaign")
        .with_scenarios("high-rate")
        .with_protocols(*PROTOCOLS)
        .with_campaign(replications=2, horizon=200.0)
        .with_solver(grid_points=12)
    )

    def test_cells_and_artifact_bytes_identical(self, monkeypatch):
        production = run(self.SPEC).raw
        monkeypatch.setattr(campaign, "simulate_protocol", simulate_scalar)
        reference = run(self.SPEC).raw
        assert json.dumps(production.as_dict(), sort_keys=True) == json.dumps(
            reference.as_dict(), sort_keys=True
        )


class TestProductionPath:
    """Spec-driven runs simulate every built-in protocol as the reference does."""

    def test_validate_and_campaign_replications_run_batched(self, monkeypatch):
        runs = []

        def recording(model, params, config=None):
            result = simulate_protocol(model, params, config)
            runs.append((model, params, config or SimulationConfig(), result))
            return result

        # Validate and campaign replications share one simulation path.
        monkeypatch.setattr(campaign, "simulate_protocol", recording)
        run(
            ExperimentSpec.from_dict(
                {
                    "kind": "validate",
                    "scenario": {"depth": 3, "density": 4, "sampling_period": 60.0},
                    "protocols": list(PROTOCOLS),
                    "simulation": {"horizon": 200.0},
                }
            )
        )
        run(
            ExperimentSpec.from_dict(
                {
                    "kind": "campaign",
                    "scenarios": ["high-rate"],
                    "protocols": list(PROTOCOLS),
                    "campaign": {"replications": 2, "horizon": 200.0},
                    "solver": {"grid_points": 12},
                }
            )
        )
        assert len(runs) == 3 * len(PROTOCOLS)
        assert {result.protocol for *_, result in runs} == {
            "X-MAC", "DMAC", "LMAC", "SCP-MAC"
        }
        for model, params, config, result in runs:
            reference = simulate_scalar(model, params, config)
            assert_bit_identical(
                reference, result, context=f"{result.protocol} seed={config.seed}"
            )


class TestEdgeCases:
    """Degenerate inputs both simulators must handle the same way."""

    @staticmethod
    def _model():
        scenario = Scenario(RingTopology(depth=3, density=4), sampling_rate=1.0 / 60.0)
        return create_protocol("xmac", scenario)

    @DRIVERS
    def test_horizon_shorter_than_one_duty_cycle(self, simulate):
        # 50 ms horizon vs a 300 ms wake-up interval: zero periodic polls
        # fit, no packet is generated, every node idles at sleep power.
        model = self._model()
        config = SimulationConfig(horizon=0.05, seed=3)
        result = simulate(model, PROTOCOL_PARAMS["xmac"], config)
        assert result.generated_packets == 0
        sleep_power = model.scenario.radio.power_sleep
        assert set(result.node_power.values()) == {sleep_power}

    def test_short_horizon_identical_across_engines(self):
        model = self._model()
        config = SimulationConfig(horizon=0.05, seed=3)
        scalar = simulate_scalar(model, PROTOCOL_PARAMS["xmac"], config)
        batched = simulate_protocol(model, PROTOCOL_PARAMS["xmac"], config)
        assert_bit_identical(scalar, batched, context="short-horizon")

    def test_single_replication(self):
        model = self._model()
        config = SimulationConfig(horizon=300.0, seed=5)
        (batched,) = simulate_protocol_batched(
            model, PROTOCOL_PARAMS["xmac"], [config]
        )
        scalar = simulate_scalar(model, PROTOCOL_PARAMS["xmac"], config)
        assert_bit_identical(scalar, batched, context="single-replication")

    def test_zero_replications_is_a_clean_error(self):
        with pytest.raises(SimulationError, match="at least one replication"):
            simulate_protocol_batched(self._model(), PROTOCOL_PARAMS["xmac"], [])

    def test_engine_is_not_a_config_knob(self):
        with pytest.raises(TypeError):
            SimulationConfig(engine="scalar")  # type: ignore[call-arg]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_no_protocol_falls_back(self, protocol):
        # All four built-in protocols have batch kernels.
        scenario = Scenario(RingTopology(depth=3, density=4), sampling_rate=1.0 / 60.0)
        model = create_protocol(protocol, scenario)
        params = PROTOCOL_PARAMS[protocol]
        config = SimulationConfig(horizon=300.0, seed=9)
        scalar = simulate_scalar(model, params, config)
        batched = simulate_protocol(model, params, config)
        assert_bit_identical(scalar, batched, context=f"batched-{protocol}")

    def test_protocol_without_a_kernel_is_refused_by_name(
        self, analytical_only_model_class
    ):
        scenario = Scenario(RingTopology(depth=3, density=4), sampling_rate=1.0 / 60.0)
        model = analytical_only_model_class(scenario)
        message = (
            "no simulated behaviour is registered for AnalyticalOnlyMAC "
            "(Analytical-Only); protocols with a simulator: dmac, lmac, scpmac, xmac"
        )
        for simulate in (simulate_protocol, simulate_scalar):
            with pytest.raises(SimulationError) as caught:
                simulate(model, {"interval": 0.5}, SimulationConfig(horizon=60.0))
            assert str(caught.value) == message

    def test_replications_vary_only_by_seed(self):
        # The batched entry point accepts heterogeneous configs; each one is
        # honoured independently.
        model = self._model()
        configs = [SimulationConfig(horizon=200.0, seed=seed) for seed in (1, 2, 3)]
        results = simulate_protocol_batched(model, PROTOCOL_PARAMS["xmac"], configs)
        for config, result in zip(configs, results):
            scalar = simulate_scalar(model, PROTOCOL_PARAMS["xmac"], config)
            assert_bit_identical(scalar, result, context=f"seed={config.seed}")
