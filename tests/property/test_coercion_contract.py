"""Coercion contract: parameter conversions against the dict ↔ array round trip.

The reference below is the plain round trip: a mapping goes through
``to_dict(to_array(m))``, anything else through ``to_dict(np.asarray(...))``,
with ``to_dict`` reading ``float(array[i])`` name by name.  Production
builds a mapping's dict straight from the checked ``float(...)`` values and
zips the names with ``array.tolist()``.  For every input kind, ``coerce``,
``coerce_array``, ``to_array`` and ``to_dict`` must return equal values (by
their bits, with the same types and key order) or raise the same exception
with the same text: unknown names, missing names and wrong lengths alike.
"""

from __future__ import annotations

import struct
import typing
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.protocols.registry import create_protocol
from repro.scenarios import scenario_preset

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
#: X-MAC has one tunable, LMAC two.
MODELS = {
    name: create_protocol(name, scenario_preset("paper-default").scenario)
    for name in ("xmac", "lmac")
}
UNKNOWN_NAMES = ("gamma", "frame_length")


# ---------------------------------------------------------------------- #
# The reference round trip
# ---------------------------------------------------------------------- #


def reference_to_array(space, values):
    index = {name: i for i, name in enumerate(space.names)}
    unknown = set(values) - set(index)
    if unknown:
        raise ConfigurationError(f"unknown parameter(s): {sorted(unknown)}")
    missing = set(index) - set(values)
    if missing:
        raise ConfigurationError(f"missing parameter(s): {sorted(missing)}")
    return np.array([float(values[name]) for name in space.names], dtype=float)


def reference_to_dict(space, array):
    array = np.asarray(array, dtype=float).ravel()
    if array.shape[0] != space.dimension:
        raise ConfigurationError(f"expected {space.dimension} values, got {array.shape[0]}")
    return {name: float(array[i]) for i, name in enumerate(space.names)}


def reference_coerce(model, params):
    space = model.parameter_space
    if isinstance(params, typing.Mapping):
        return reference_to_dict(space, reference_to_array(space, params))
    return reference_to_dict(space, np.asarray(params, dtype=float))


def reference_coerce_array(model, params):
    space = model.parameter_space
    if isinstance(params, typing.Mapping):
        return reference_to_array(space, params)
    array = np.asarray(params, dtype=float).ravel()
    if array.shape[0] != space.dimension:
        raise ConfigurationError(
            f"{model.name}: expected {space.dimension} parameters, got {array.shape[0]}"
        )
    return array


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #

#: Every scalar kind a caller may put in a mapping or a list.
scalars = st.one_of(
    st.floats(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.booleans(),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.floats().map(repr),
)


@st.composite
def mappings(draw, names):
    if draw(st.booleans()):
        keys = draw(st.permutations(list(names)))
    else:
        keys = draw(st.lists(st.sampled_from(list(names) + list(UNKNOWN_NAMES)), unique=True))
    values = {key: draw(scalars) for key in keys}
    return MappingProxyType(values) if draw(st.booleans()) else values


@st.composite
def sequences(draw, dimension):
    length = draw(st.sampled_from([dimension, dimension, dimension - 1, dimension + 1]))
    kind = draw(st.sampled_from(["float64", "float32", "int", "row", "list", "tuple"]))
    if kind in ("list", "tuple"):
        items = draw(st.lists(scalars, min_size=length, max_size=length))
        return items if kind == "list" else tuple(items)
    if kind == "int":
        items = draw(st.lists(st.integers(-(10**9), 10**9), min_size=length, max_size=length))
        return np.array(items, dtype=np.int64)
    width = 32 if kind == "float32" else 64
    items = draw(st.lists(st.floats(width=width), min_size=length, max_size=length))
    array = np.array(items, dtype=np.float32 if width == 32 else np.float64)
    return array.reshape(1, -1) if kind == "row" else array


def inputs(names):
    return st.one_of(mappings(names), sequences(len(names)))


# ---------------------------------------------------------------------- #
# Comparison
# ---------------------------------------------------------------------- #


def _settle(call):
    """What a call did: its exception, or its result down to the bits."""
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raises", type(exc), str(exc))
    if isinstance(result, dict):
        return (
            "dict",
            [(key, type(value), struct.pack("<d", value)) for key, value in result.items()],
        )
    return ("array", result.dtype, result.shape, result.tobytes())


@pytest.mark.parametrize("protocol", sorted(MODELS))
@SETTINGS
@given(data=st.data())
def test_coerce_and_coerce_array_match_the_round_trip(protocol, data):
    model = MODELS[protocol]
    params = data.draw(inputs(model.parameter_space.names))
    assert _settle(lambda: model.coerce(params)) == _settle(
        lambda: reference_coerce(model, params)
    )
    assert _settle(lambda: model.coerce_array(params)) == _settle(
        lambda: reference_coerce_array(model, params)
    )


@pytest.mark.parametrize("protocol", sorted(MODELS))
@SETTINGS
@given(data=st.data())
def test_to_array_and_to_dict_match_the_round_trip(protocol, data):
    space = MODELS[protocol].parameter_space
    values = data.draw(mappings(space.names))
    assert _settle(lambda: space.to_array(values)) == _settle(
        lambda: reference_to_array(space, values)
    )
    array = data.draw(sequences(space.dimension))
    assert _settle(lambda: space.to_dict(array)) == _settle(
        lambda: reference_to_dict(space, array)
    )


@pytest.mark.parametrize(
    "params, message",
    [
        ({"slot_length": 0.01, "slot_count": 20.0, "gamma": 1.0}, "unknown parameter(s): ['gamma']"),
        ({"slot_length": 0.01}, "missing parameter(s): ['slot_count']"),
        ([0.01, 20.0, 3.0], "expected 2 values, got 3"),
    ],
    ids=["unknown", "missing", "wrong-length"],
)
def test_bad_input_is_refused_by_name(params, message):
    model = MODELS["lmac"]
    with pytest.raises(ConfigurationError) as caught:
        model.coerce(params)
    assert str(caught.value) == message
