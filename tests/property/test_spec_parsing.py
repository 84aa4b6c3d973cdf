"""Spec parsing is total: any JSON document yields a spec or a named error.

``ExperimentSpec.from_dict`` is the boundary every spec crosses — CLI files,
HTTP bodies, replayed queue journals — so whatever JSON arrives, it must
either parse or raise :class:`~repro.exceptions.ConfigurationError` (which
the CLI maps to exit 2 and the service to a 400), never a ``TypeError`` or
``ValueError`` from deep inside a section.
"""

from __future__ import annotations

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import (
    SOLVER_OPTION_TYPES,
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
        "solver": section("grid_points", *SOLVER_OPTION_TYPES),
        "runtime": section("workers", "cache", "mode", "chunk_size"),
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
