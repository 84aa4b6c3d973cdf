"""Bit-identity of the batched protocol evaluation.

The vectorized layer (``energy_many`` / ``latency_many`` /
``capacity_margin_many``) exists to make grid evaluation fast *without*
changing a single bit of any result: parallel partitioning of a search must
be invisible in its output.  These tests compare the batched methods against
the scalar methods row by row with exact ``==`` (no tolerance) across all
built-in protocols and a spread of scenarios, including bursty traffic and
non-default radios.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.network.radio import cc1100, tr1001
from repro.network.topology import RingTopology
from repro.protocols.base import DutyCycledMACModel
from repro.protocols.registry import available_protocols, create_protocol
from repro.scenario import Scenario, default_scenario

SCENARIOS = {
    "default": default_scenario(),
    "deep-sparse": Scenario(
        topology=RingTopology(depth=7, density=4), sampling_rate=1.0 / 900.0
    ),
    "dense": Scenario(topology=RingTopology(depth=3, density=14), sampling_rate=1.0 / 1800.0),
    "cc1100": Scenario(sampling_rate=1.0 / 600.0, radio=cc1100()),
    "tr1001-bursty": Scenario(
        sampling_rate=1.0 / 600.0, radio=tr1001(), burstiness=5.0
    ),
}


def _models():
    for scenario_name, scenario in SCENARIOS.items():
        for protocol in available_protocols():
            yield pytest.param(
                scenario, protocol, id=f"{scenario_name}-{protocol}"
            )


@pytest.mark.parametrize("scenario, protocol", _models())
def test_batched_methods_bit_identical_to_scalar(scenario, protocol):
    model = create_protocol(protocol, scenario)
    grid = model.parameter_space.grid(19)

    energy_scalar = np.array([model.system_energy(row) for row in grid])
    latency_scalar = np.array([model.system_latency(row) for row in grid])
    capacity_scalar = np.array([model.capacity_margin(row) for row in grid])

    assert np.array_equal(model.energy_many(grid), energy_scalar)
    assert np.array_equal(model.latency_many(grid), latency_scalar)
    assert np.array_equal(model.capacity_margin_many(grid), capacity_scalar)


@pytest.mark.parametrize("protocol", available_protocols())
def test_batched_methods_match_base_fallback(protocol):
    """The base-class row loop and the NumPy overrides agree exactly."""
    model = create_protocol(protocol, default_scenario())
    grid = model.parameter_space.grid(9)
    assert np.array_equal(
        model.energy_many(grid), DutyCycledMACModel.energy_many(model, grid)
    )
    assert np.array_equal(
        model.latency_many(grid), DutyCycledMACModel.latency_many(model, grid)
    )
    assert np.array_equal(
        model.capacity_margin_many(grid),
        DutyCycledMACModel.capacity_margin_many(model, grid),
    )


def test_single_row_grid_accepted():
    """A 1-D array of length ``dimension`` is treated as one row."""
    model = create_protocol("xmac", default_scenario())
    point = model.parameter_space.midpoint()
    values = model.energy_many(point)
    assert values.shape == (1,)
    assert values[0] == model.system_energy(point)


def test_wrong_grid_shape_rejected():
    model = create_protocol("lmac", default_scenario())  # 2-D parameter space
    with pytest.raises(ConfigurationError):
        model.energy_many(np.zeros((4, 3)))
    with pytest.raises(ConfigurationError):
        model.latency_many(np.zeros(3))
    with pytest.raises(ConfigurationError):
        model.capacity_margin_many(np.zeros((2, 2, 2)))


def test_bursty_traffic_tightens_capacity_only():
    """Bursts shrink the capacity margin but leave energy/latency untouched."""
    periodic = Scenario(sampling_rate=1.0 / 600.0)
    bursty = periodic.with_burstiness(6.0)
    for protocol in available_protocols():
        base = create_protocol(protocol, periodic)
        stressed = create_protocol(protocol, bursty)
        grid = base.parameter_space.grid(7)
        assert np.array_equal(base.energy_many(grid), stressed.energy_many(grid))
        assert np.array_equal(base.latency_many(grid), stressed.latency_many(grid))
        assert np.all(
            stressed.capacity_margin_many(grid) < base.capacity_margin_many(grid)
        ), protocol


def test_unit_burstiness_is_bit_identical_to_periodic():
    """``burstiness=1.0`` must not move any capacity margin by a single bit."""
    plain = Scenario(sampling_rate=1.0 / 600.0)
    explicit = plain.with_burstiness(1.0)
    for protocol in available_protocols():
        a = create_protocol(protocol, plain)
        b = create_protocol(protocol, explicit)
        grid = a.parameter_space.grid(7)
        assert np.array_equal(a.capacity_margin_many(grid), b.capacity_margin_many(grid))
