"""The closed-form contract: one expression per quantity, two paths.

Each built-in model states its energy terms, awake fraction, hop time,
initial wait and bottleneck load once; :class:`ClosedFormMACModel` runs
them on Python floats for a point and on float64 columns for a grid.  These
tests pin what that contract promises beyond bit identity (which
``test_vectorized.py`` and ``test_golden_outputs.py`` check): the delay
fold is the same on every Python, the point path returns Python floats,
and one overridden expression reaches both paths.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.network.topology import RingTopology
from repro.protocols.base import ClosedFormMACModel
from repro.protocols.registry import create_protocol
from repro.protocols.xmac import XMACModel
from repro.scenario import Scenario, default_scenario

BUILT_INS = ("dmac", "lmac", "scpmac", "xmac")

#: Seven hops: deep enough that a compensated ``sum()`` (CPython >= 3.12)
#: and a plain left-to-right fold disagree in the last bits.
DEEP = Scenario(topology=RingTopology(depth=7, density=4), sampling_rate=1.0 / 900.0)


@pytest.mark.parametrize("protocol", BUILT_INS)
def test_latency_is_a_left_to_right_fold_of_hop_latencies(protocol):
    model = create_protocol(protocol, DEEP)
    grid = model.parameter_space.grid(19)
    expected = []
    for row in grid:
        # DMAC charges its Tf/2 wave wait once, before the first hop.
        total = 0.5 * float(row[0]) if protocol == "dmac" else 0.0
        hops = 0.0
        for ring in DEEP.topology.rings():
            hops = hops + model.hop_latency(row, ring)
        expected.append(total + hops)
    assert [model.system_latency(row) for row in grid] == expected
    assert model.latency_many(grid).tolist() == expected


@pytest.mark.parametrize("protocol", BUILT_INS)
@pytest.mark.parametrize("ring", [0, 6, 99, -1, 2.0, "1"])
def test_ring_methods_refuse_a_ring_outside_the_topology(protocol, ring):
    # Hop times are ring-independent, but a ring the topology lacks is still
    # refused, as every other ring-indexed method refuses it.
    model = create_protocol(protocol, default_scenario())
    mid = model.parameter_space.midpoint()
    for method in (model.hop_latency, model.duty_cycle, model.energy_breakdown):
        with pytest.raises(ConfigurationError, match=r"ring index must be an integer in \[1, 5\]"):
            method(mid, ring)


@pytest.mark.parametrize("protocol", BUILT_INS)
def test_scalar_results_are_python_floats(protocol):
    model = create_protocol(protocol, default_scenario())
    space = model.parameter_space
    for params in (space.midpoint(), space.to_dict(space.lower_bounds), list(space.upper_bounds)):
        values = [
            model.system_energy(params),
            model.system_latency(params),
            model.capacity_margin(params),
        ]
        for ring in model.scenario.topology.rings():
            breakdown = model.energy_breakdown(params, ring)
            values.extend(getattr(breakdown, field.name) for field in dataclasses.fields(breakdown))
            values.append(model.duty_cycle(params, ring))
            values.append(model.hop_latency(params, ring))
        assert {type(value) for value in values} == {float}


class _DoubledHops(XMACModel):
    def hop_time(self, x):
        return 2.0 * super().hop_time(x)


class _DoubledTransmit(XMACModel):
    def energy_terms(self, x, traffic):
        carrier_sense, transmit, *rest = super().energy_terms(x, traffic)
        return (carrier_sense, 2.0 * transmit, *rest)


class _DoubledLoad(XMACModel):
    def bottleneck_load(self, x, traffic):
        return 2.0 * super().bottleneck_load(x, traffic)


@pytest.mark.parametrize(
    "model_class, point_method, grid_method",
    [
        (_DoubledHops, "system_latency", "latency_many"),
        (_DoubledTransmit, "system_energy", "energy_many"),
        (_DoubledLoad, "capacity_margin", "capacity_margin_many"),
    ],
    ids=["hop_time", "energy_terms", "bottleneck_load"],
)
def test_one_overridden_expression_reaches_both_paths(model_class, point_method, grid_method):
    scenario = default_scenario()
    plain, changed = XMACModel(scenario), model_class(scenario)
    grid = plain.parameter_space.grid(15)
    point_path = np.array([getattr(changed, point_method)(row) for row in grid])
    assert np.array_equal(getattr(changed, grid_method)(grid), point_path)
    assert not np.array_equal(point_path, getattr(plain, grid_method)(grid))


def test_grid_results_are_columns_even_when_constant():
    class ConstantDelay(XMACModel):
        def hop_time(self, x):
            return 0.25

    model = ConstantDelay(default_scenario())
    grid = model.parameter_space.grid(6)
    latency = model.latency_many(grid)
    assert latency.shape == (6,)
    assert latency.tolist() == [model.system_latency(row) for row in grid]


def test_scalar_only_model_keeps_the_row_by_row_fallback(analytical_only_model_class):
    model = analytical_only_model_class(default_scenario())
    assert not isinstance(model, ClosedFormMACModel)
    grid = model.parameter_space.grid(9)
    assert model.latency_many(grid).tolist() == [model.system_latency(row) for row in grid]
    assert model.energy_many(grid).tolist() == [model.system_energy(row) for row in grid]
