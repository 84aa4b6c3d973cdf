"""ExperimentSpec: parsing, fluent construction, serialization, hashing."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro.api import WORKLOAD_KINDS, ExperimentSpec, plan
from repro.api.spec import SECTION_READERS
from repro.exceptions import ConfigurationError

ROOT = Path(__file__).resolve().parents[2]
SPECS = sorted((ROOT / "examples" / "specs").glob("*.json"))


class TestFromDict:
    def test_minimal_spec_round_trips(self):
        spec = ExperimentSpec.from_dict({"kind": "solve", "protocols": ["xmac"]})
        assert spec.kind == "solve"
        assert spec.protocols == ("xmac",)
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_every_kind_is_accepted(self):
        for kind in WORKLOAD_KINDS:
            assert ExperimentSpec.from_dict({"kind": kind}).kind == kind

    def test_unknown_kind_is_rejected_with_the_known_list(self):
        with pytest.raises(ConfigurationError, match="unknown workload kind"):
            ExperimentSpec.from_dict({"kind": "frobnicate"})
        with pytest.raises(ConfigurationError, match="solve"):
            ExperimentSpec.from_dict({"kind": "frobnicate"})

    def test_missing_kind_is_rejected(self):
        with pytest.raises(ConfigurationError, match="needs a 'kind'"):
            ExperimentSpec.from_dict({"protocols": ["xmac"]})

    def test_unknown_top_level_key_is_named(self):
        with pytest.raises(ConfigurationError, match="workers_count"):
            ExperimentSpec.from_dict({"kind": "solve", "workers_count": 4})

    def test_unknown_nested_key_is_named(self):
        with pytest.raises(ConfigurationError, match="horizons"):
            ExperimentSpec.from_dict({"kind": "validate", "simulation": {"horizons": 1}})

    def test_sweep_parameter_aliases_are_normalized(self):
        spec = ExperimentSpec.from_dict(
            {"kind": "sweep", "sweep": {"parameter": "max-delay", "values": [1.0]}}
        )
        assert spec.sweep.parameter == "max_delay"

    def test_unknown_sweep_parameter_is_rejected(self):
        with pytest.raises(ConfigurationError, match="sweep.parameter must be one of"):
            ExperimentSpec.from_dict(
                {"kind": "sweep", "sweep": {"parameter": "jitter", "values": [1.0]}}
            )

    def test_sweep_needs_parameter_and_values(self):
        with pytest.raises(ConfigurationError, match="parameter"):
            ExperimentSpec.from_dict({"kind": "sweep", "sweep": {"values": [1.0]}})
        with pytest.raises(ConfigurationError, match="empty"):
            ExperimentSpec.from_dict(
                {"kind": "sweep", "sweep": {"parameter": "max_delay", "values": []}}
            )

    def test_inline_scenario_keys_are_checked(self):
        with pytest.raises(ConfigurationError, match="rings"):
            ExperimentSpec.from_dict({"kind": "solve", "scenario": {"rings": 5}})

    def test_non_mapping_payload_is_rejected(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            ExperimentSpec.from_dict(["kind", "solve"])  # type: ignore[arg-type]


class TestLoaders:
    def test_from_json(self):
        spec = ExperimentSpec.from_json('{"kind": "figure1"}')
        assert spec.kind == "figure1"

    def test_from_json_syntax_error_is_clean(self):
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            ExperimentSpec.from_json("{not json}")

    def test_from_toml(self):
        pytest.importorskip("tomllib")
        spec = ExperimentSpec.from_toml(
            'kind = "sweep"\nprotocols = ["xmac"]\n\n[sweep]\nparameter = "max_delay"\nvalues = [2.0, 4.0]\n'
        )
        assert spec.sweep.values == (2.0, 4.0)

    def test_from_file_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "suite"}))
        assert ExperimentSpec.from_file(path).kind == "suite"

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(ConfigurationError, match="spec file not found"):
            ExperimentSpec.from_file(tmp_path / "nope.json")

    def test_from_file_unsupported_suffix(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("kind: solve")
        with pytest.raises(ConfigurationError, match="unsupported spec file type"):
            ExperimentSpec.from_file(path)


class TestFluent:
    def test_fluent_builder_matches_dict_form(self):
        fluent = (
            ExperimentSpec.experiment("sweep", name="demo")
            .with_scenario("paper-default")
            .with_protocols("xmac")
            .with_sweep("max_delay", [2.0, 4.0])
            .with_requirements(energy_budget=0.05)
            .with_solver(grid_points=30)
            .with_runtime(workers=2, cache=False)
        )
        parsed = ExperimentSpec.from_dict(
            {
                "kind": "sweep",
                "name": "demo",
                "scenario": "paper-default",
                "protocols": ["xmac"],
                "sweep": {"parameter": "max_delay", "values": [2.0, 4.0]},
                "requirements": {"energy_budget": 0.05},
                "solver": {"grid_points": 30},
                "runtime": {"workers": 2, "cache": False},
            }
        )
        assert fluent == parsed

    def test_fluent_steps_do_not_mutate(self):
        base = ExperimentSpec.experiment("solve")
        derived = base.with_protocols("xmac")
        assert base.protocols == ()
        assert derived.protocols == ("xmac",)

    def test_with_requirements_merges_like_the_other_builders(self):
        spec = (
            ExperimentSpec.experiment("solve")
            .with_requirements(energy_budget=0.02)
            .with_requirements(max_delay=2.0)
        )
        assert spec.requirements.energy_budget == 0.02
        assert spec.requirements.max_delay == 2.0

    def test_with_solver_accepts_only_forwardable_keywords(self):
        # Anything else would reach hybrid_solve and fail at solve time.
        with pytest.raises(ConfigurationError, match=r"unknown solver key\(s\): method"):
            ExperimentSpec.experiment("solve").with_solver(method="exhaustive")
        # The polish's feasibility tolerance is fixed; the key is gone.
        with pytest.raises(
            ConfigurationError, match=r"unknown solver key\(s\): feasibility_tolerance"
        ):
            ExperimentSpec.experiment("solve").with_solver(feasibility_tolerance=1e-3)
        with pytest.raises(ConfigurationError, match=r"unknown solver key\(s\): vectorize"):
            ExperimentSpec.experiment("solve").with_solver(vectorize=False)
        # The multistart these configured is gone; simulation.seed stays.
        with pytest.raises(ConfigurationError, match=r"unknown solver key\(s\): random_starts"):
            ExperimentSpec.experiment("solve").with_solver(random_starts=6)
        with pytest.raises(ConfigurationError, match=r"unknown solver key\(s\): seed"):
            ExperimentSpec.experiment("solve").with_solver(seed=0)

    def test_runtime_policy_has_only_workers_and_cache(self):
        spec = ExperimentSpec.experiment("solve").with_runtime(workers=2, cache=False)
        assert spec.to_dict()["runtime"] == {"workers": 2, "cache": False}
        with pytest.raises(TypeError):
            spec.with_runtime(mode="thread")
        with pytest.raises(ConfigurationError, match="runtime.cache"):
            spec.with_runtime(cache="false")
        with pytest.raises(ConfigurationError, match="runtime.workers"):
            spec.with_runtime(workers=2.5)


class TestHash:
    def test_hash_is_stable_and_64_hex_chars(self):
        spec = ExperimentSpec.experiment("suite").with_protocols("xmac")
        assert spec.spec_hash() == spec.spec_hash()
        assert len(spec.spec_hash()) == 64
        int(spec.spec_hash(), 16)  # hex

    def test_hash_changes_with_the_workload(self):
        base = ExperimentSpec.experiment("suite").with_protocols("xmac")
        assert base.spec_hash() != base.with_protocols("lmac").spec_hash()
        assert base.spec_hash() != base.with_solver(grid_points=10).spec_hash()

    def test_runtime_policy_does_not_change_provenance(self):
        base = ExperimentSpec.experiment("suite").with_protocols("xmac")
        parallel = base.with_runtime(workers=8, cache=False)
        assert base.spec_hash() == parallel.spec_hash()

    def test_a_section_the_kind_does_not_read_does_not_change_provenance(self):
        # The service keys jobs by this hash: a suite that carries a
        # simulation seed is the same work as one that does not.
        suite = {"kind": "suite", "protocols": ["xmac"]}
        assert _hash(dict(suite, simulation={"seed": 3})) == _hash(suite)
        assert _hash(dict(suite, campaign={"replications": 7})) == _hash(suite)
        validate = {"kind": "validate", "protocols": ["xmac"]}
        assert _hash(dict(validate, campaign={"base_seed": 9})) == _hash(validate)
        campaign = {"kind": "campaign", "protocols": ["xmac"]}
        assert _hash(dict(campaign, simulation={"horizon": 50.0})) == _hash(campaign)

    def test_a_section_the_kind_reads_changes_provenance(self):
        validate = {"kind": "validate", "protocols": ["xmac"]}
        assert _hash(dict(validate, simulation={"seed": 3})) != _hash(validate)
        campaign = {"kind": "campaign", "protocols": ["xmac"]}
        assert _hash(dict(campaign, campaign={"replications": 7})) != _hash(campaign)

    @pytest.mark.parametrize("path", SPECS, ids=lambda path: path.stem)
    def test_example_spec_hashes_every_section_it_carries(self, path):
        # Each example carries only sections its kind reads, so its hash is
        # the digest of its whole canonical form, runtime aside.
        spec = ExperimentSpec.from_file(path)
        assert spec.spec_hash() == _whole_form_hash(spec)

    @pytest.mark.parametrize("path", SPECS, ids=lambda path: path.stem)
    @pytest.mark.parametrize("section", sorted(SECTION_READERS))
    def test_the_sections_a_kind_plans_with_are_the_ones_it_hashes(self, path, section):
        # A section reaches a kind's plan exactly when SECTION_READERS names
        # the kind, and exactly then does it move the hash: a kind that
        # starts reading a section fails here until the table says so.
        spec = ExperimentSpec.from_file(path)
        moved = _RESEEDS[section](spec)
        reads = spec.kind in SECTION_READERS[section]
        assert (plan(moved).units != plan(spec).units) is reads
        assert (moved.spec_hash() != spec.spec_hash()) is reads

    def test_benchmark_input_hashes_every_section_it_carries(self, tmp_path):
        loader = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(workloads)
        for name, workload in workloads.WORKLOADS.items():
            for seed in range(1, 6):
                for item in workload(seed, tmp_path).items:
                    spec = ExperimentSpec.from_dict(item)
                    assert spec.spec_hash() == _whole_form_hash(spec), (name, seed)


#: Moves a seed every reader of the section hands its units.
_RESEEDS = {
    "simulation": lambda spec: spec.with_simulation(seed=spec.simulation.seed + 1),
    "campaign": lambda spec: spec.with_campaign(base_seed=spec.campaign.base_seed + 1),
}


def _hash(payload):
    return ExperimentSpec.from_dict(payload).spec_hash()


def _whole_form_hash(spec):
    payload = spec.to_dict()
    payload.pop("runtime")
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Every float field of a spec document, as a JSON fragment whose ``%s`` is
#: the value under test, keyed by the field name the error must carry.
FLOAT_FIELDS = {
    "requirements.energy_budget": '"requirements": {"energy_budget": %s}',
    "requirements.max_delay": '"requirements": {"max_delay": %s}',
    "sweep.values[]": '"sweep": {"parameter": "max_delay", "values": [2.0, %s]}',
    "simulation.horizon": '"simulation": {"horizon": %s}',
    "simulation.parameters.wakeup_interval": (
        '"simulation": {"parameters": {"wakeup_interval": %s}}'
    ),
    "scenario.depth": '"scenario": {"depth": %s}',
    "scenario.density": '"scenario": {"density": %s}',
    "scenario.sampling_period": '"scenario": {"sampling_period": %s}',
    "scenario.burstiness": '"scenario": {"burstiness": %s}',
    "campaign.horizon": '"campaign": {"horizon": %s}',
    "campaign.confidence": '"campaign": {"confidence": %s}',
    "campaign.energy_tolerance": '"campaign": {"energy_tolerance": %s}',
    "campaign.delay_tolerance": '"campaign": {"delay_tolerance": %s}',
    "campaign.min_delivery_ratio": '"campaign": {"min_delivery_ratio": %s}',
}


class TestNonFiniteNumbers:
    # Python's json reads these non-standard literals into floats.
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", sorted(FLOAT_FIELDS))
    def test_rejected_at_parse_time_naming_the_field(self, field, literal):
        text = '{"kind": "sweep", %s}' % (FLOAT_FIELDS[field] % literal)
        with pytest.raises(ConfigurationError, match=re.escape(f"{field} must be finite")):
            ExperimentSpec.from_json(text)

    def test_fluent_builders_are_checked_too(self):
        spec = ExperimentSpec.experiment("campaign")
        with pytest.raises(ConfigurationError, match="campaign.energy_tolerance"):
            spec.with_campaign(energy_tolerance=float("nan"))
        with pytest.raises(ConfigurationError, match="simulation.horizon"):
            spec.with_simulation(horizon=float("inf"))
        with pytest.raises(ConfigurationError, match="requirements.max_delay"):
            spec.with_requirements(max_delay=float("nan"))

    def test_finite_values_keep_their_hash(self):
        # The check converts nothing: a campaign horizon given as an int
        # stays an int in the canonical form, so existing hashes hold.
        spec = ExperimentSpec.experiment("campaign").with_campaign(horizon=600)
        assert spec.to_dict()["campaign"]["horizon"] == 600
        assert isinstance(spec.to_dict()["campaign"]["horizon"], int)
