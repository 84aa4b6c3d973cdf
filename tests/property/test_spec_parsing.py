"""Spec parsing is total: any JSON document yields a spec or a named error.

``ExperimentSpec.from_dict`` is the boundary every spec crosses — CLI files,
HTTP bodies, replayed queue journals — so whatever JSON arrives, it must
either parse or raise :class:`~repro.exceptions.ConfigurationError` (which
the CLI maps to exit 2 and the service to a 400), never a ``TypeError`` or
``ValueError`` from deep inside a section.  Nor may it coerce what it
should refuse: an integer field takes only integral numbers (never a
boolean, never a truncated fraction), ``runtime.cache`` only a JSON boolean,
and ``name`` and every ``protocols``/``scenarios`` entry only a string.
"""

from __future__ import annotations

import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import (
    WORKLOAD_KINDS,
    CampaignSettings,
    ExperimentSpec,
)
from repro.exceptions import ConfigurationError

#: Arbitrary JSON values (non-finite floats included: Python's JSON parser
#: accepts ``NaN`` and ``Infinity``).
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def section(*keys: str):
    """A mapping over a section's keys (plus the odd stranger), or any JSON."""
    known = st.fixed_dictionaries({}, optional={key: JSON for key in keys})
    stranger = st.dictionaries(st.sampled_from(keys + ("bogus",)), JSON, max_size=3)
    return known | stranger | JSON


PAYLOADS = st.fixed_dictionaries(
    {"kind": st.sampled_from(WORKLOAD_KINDS) | JSON},
    optional={
        "name": JSON,
        "scenario": st.just("paper-default")
        | section("depth", "density", "sampling_period", "radio", "burstiness"),
        "scenarios": JSON,
        "protocols": JSON,
        "requirements": section("energy_budget", "max_delay"),
        "sweep": section("parameter", "values"),
        "simulation": section("horizon", "seed", "parameters"),
        "campaign": section(*(spec_field.name for spec_field in fields(CampaignSettings))),
        "solver": section("grid_points"),
        "runtime": section("workers", "cache"),
    },
) | JSON


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
def test_any_json_payload_parses_or_raises_configuration_error(payload):
    try:
        spec = ExperimentSpec.from_dict(payload)
    except ConfigurationError:
        return
    # Whatever parsed is a canonical spec: it round-trips to the same hash.
    assert ExperimentSpec.from_dict(spec.to_dict()).spec_hash() == spec.spec_hash()


#: Every integer field: a spec document placing ``value`` there, and how to
#: read the parsed field back (``None``: the scenario mapping keeps the value
#: as spelled, so only acceptance is checked).
INTEGER_FIELDS = {
    "solver.grid_points": (
        lambda v: {"kind": "solve", "solver": {"grid_points": v}},
        lambda spec: spec.solver.grid_points,
    ),
    "simulation.seed": (
        lambda v: {"kind": "validate", "simulation": {"seed": v}},
        lambda spec: spec.simulation.seed,
    ),
    "campaign.replications": (
        lambda v: {"kind": "campaign", "campaign": {"replications": v}},
        lambda spec: spec.campaign.replications,
    ),
    "campaign.base_seed": (
        lambda v: {"kind": "campaign", "campaign": {"base_seed": v}},
        lambda spec: spec.campaign.base_seed,
    ),
    "runtime.workers": (
        lambda v: {"kind": "solve", "runtime": {"workers": v}},
        lambda spec: spec.runtime.workers,
    ),
    "scenario.depth": (lambda v: {"kind": "solve", "scenario": {"depth": v}}, None),
    "scenario.density": (lambda v: {"kind": "solve", "scenario": {"density": v}}, None),
}

#: JSON values that are not integral numbers.
NOT_INTEGERS = (
    st.booleans()
    | st.floats().filter(lambda x: not x.is_integer())
    | st.text(max_size=4)
    | st.none()
    | st.lists(st.integers(), max_size=2)
)


@pytest.mark.parametrize("key", sorted(INTEGER_FIELDS))
@settings(max_examples=40, deadline=None)
@given(value=NOT_INTEGERS)
def test_integer_fields_refuse_anything_but_integral_numbers(key, value):
    document, _ = INTEGER_FIELDS[key]
    with pytest.raises(ConfigurationError, match=re.escape(key)):
        ExperimentSpec.from_dict(document(value))


@pytest.mark.parametrize("key", sorted(INTEGER_FIELDS))
@settings(max_examples=20, deadline=None)
@given(number=st.integers(min_value=2, max_value=10**6), as_float=st.booleans())
def test_integer_fields_read_integral_numbers_as_ints(key, number, as_float):
    document, read = INTEGER_FIELDS[key]
    value = float(number) if as_float else number
    spec = ExperimentSpec.from_dict(document(value))
    if read is not None:
        parsed = read(spec)
        assert type(parsed) is int and parsed == number
        # 40.0 and 40 are one spec: same canonical form, same hash.
        assert spec.spec_hash() == ExperimentSpec.from_dict(document(number)).spec_hash()


@settings(max_examples=60, deadline=None)
@given(JSON.filter(lambda value: not isinstance(value, bool)))
def test_runtime_cache_takes_only_a_json_boolean(value):
    with pytest.raises(ConfigurationError, match=re.escape("runtime.cache")):
        ExperimentSpec.from_dict({"kind": "solve", "runtime": {"cache": value}})


@settings(max_examples=60, deadline=None)
@given(JSON.filter(lambda value: not isinstance(value, str)))
def test_name_takes_only_a_string(value):
    with pytest.raises(ConfigurationError, match="name must be a string"):
        ExperimentSpec.from_dict({"kind": "solve", "name": value})



@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("protocols", "scenarios")),
    JSON.filter(lambda value: not isinstance(value, str)),
)
def test_name_list_entries_take_only_strings(key, value):
    with pytest.raises(ConfigurationError, match=re.escape(f"{key}[1] must be a string")):
        ExperimentSpec.from_dict({"kind": "suite", key: ["paper-default", value]})


@pytest.mark.parametrize(
    "key, entry",
    [("protocols", 1e-300), ("protocols", True), ("protocols", ["xmac"]), ("scenarios", 7)],
)
def test_name_list_entries_are_never_coerced(key, entry):
    # str() would turn these into names that only fail at plan time.
    with pytest.raises(ConfigurationError, match=re.escape(f"{key}[0] must be a string")):
        ExperimentSpec.from_dict({"kind": "suite", key: [entry]})


def test_string_name_entries_keep_their_normalization():
    spec = ExperimentSpec.from_dict(
        {"kind": "suite", "protocols": [" xmac "], "scenarios": [" Paper-Default "]}
    )
    assert spec.protocols == ("xmac",)
    assert spec.scenarios == ("paper-default",)
