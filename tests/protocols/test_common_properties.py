"""Properties every duty-cycled MAC analytical model must satisfy."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.network.topology import RingTopology
from repro.protocols import DMACModel, LMACModel, SCPMACModel, XMACModel
from repro.scenario import Scenario

PROTOCOL_CLASSES = [XMACModel, DMACModel, LMACModel, SCPMACModel]


def make_model(cls, depth=4, density=6, sampling_period=600.0):
    scenario = Scenario(
        topology=RingTopology(depth=depth, density=density),
        sampling_rate=1.0 / sampling_period,
    )
    return cls(scenario)


def midpoint(model):
    space = model.parameter_space
    return space.to_dict(space.midpoint())


@pytest.mark.parametrize("cls", PROTOCOL_CLASSES)
class TestCommonProtocolProperties:
    def test_ring_traffic_table_matches_traffic_model(self, cls):
        model = make_model(cls)
        for ring in model.scenario.topology.rings():
            assert model.ring_traffic(ring) == model.traffic.ring_traffic(ring)
        assert model.ring_traffic(1) is model.ring_traffic(1)

    @pytest.mark.parametrize("ring", [0, 5, 1.0, -1])
    def test_bad_ring_index_raises_like_the_traffic_model(self, cls, ring):
        model = make_model(cls)
        with pytest.raises(ConfigurationError) as from_traffic:
            model.traffic.ring_traffic(ring)
        with pytest.raises(ConfigurationError, match=re.escape(str(from_traffic.value))):
            model.ring_traffic(ring)

    def test_energy_is_positive_everywhere(self, cls):
        model = make_model(cls)
        for point in model.parameter_space.grid(7):
            assert model.system_energy(point) > 0

    def test_latency_is_positive_everywhere(self, cls):
        model = make_model(cls)
        for point in model.parameter_space.grid(7):
            assert model.system_latency(point) > 0

    def test_energy_breakdown_sums_to_node_energy(self, cls):
        model = make_model(cls)
        params = midpoint(model)
        for ring in model.scenario.topology.rings():
            breakdown = model.energy_breakdown(params, ring)
            assert breakdown.total == pytest.approx(model.node_energy(params, ring))

    def test_system_energy_is_max_over_rings(self, cls):
        model = make_model(cls)
        params = midpoint(model)
        ring_energies = model.ring_energies(params)
        assert model.system_energy(params) == pytest.approx(max(ring_energies.values()))

    def test_bottleneck_is_ring_one(self, cls):
        model = make_model(cls)
        params = midpoint(model)
        ring_energies = model.ring_energies(params)
        assert ring_energies[1] == pytest.approx(max(ring_energies.values()))

    def test_e2e_latency_increases_with_source_ring(self, cls):
        model = make_model(cls)
        params = midpoint(model)
        delays = [model.e2e_latency(params, ring) for ring in model.scenario.topology.rings()]
        assert all(later >= earlier for earlier, later in zip(delays, delays[1:]))

    def test_system_latency_is_outermost_ring_latency(self, cls):
        model = make_model(cls)
        params = midpoint(model)
        assert model.system_latency(params) == pytest.approx(
            model.e2e_latency(params, model.scenario.depth)
        )

    def test_duty_cycle_in_unit_interval(self, cls):
        model = make_model(cls)
        for point in model.parameter_space.grid(5):
            for ring in model.scenario.topology.rings():
                duty = model.duty_cycle(point, ring)
                assert 0.0 < duty <= 1.0

    def test_energy_bounded_by_always_on_radio(self, cls):
        model = make_model(cls)
        ceiling = model.scenario.radio.always_on_power * 1.05
        for point in model.parameter_space.grid(6):
            assert model.system_energy(point) <= ceiling

    def test_parameters_accepted_as_dict_and_array(self, cls):
        model = make_model(cls)
        params_dict = midpoint(model)
        params_array = model.parameter_space.to_array(params_dict)
        assert model.system_energy(params_dict) == pytest.approx(model.system_energy(params_array))
        assert model.system_latency(params_dict) == pytest.approx(
            model.system_latency(params_array)
        )

    def test_unknown_parameter_name_rejected(self, cls):
        model = make_model(cls)
        with pytest.raises(ConfigurationError):
            model.system_energy({"definitely_not_a_parameter": 1.0})

    def test_wrong_parameter_count_rejected(self, cls):
        model = make_model(cls)
        with pytest.raises(ConfigurationError):
            model.system_energy(np.zeros(model.parameter_space.dimension + 1))

    def test_midpoint_is_admissible(self, cls):
        model = make_model(cls)
        assert model.is_admissible(midpoint(model))

    def test_denser_traffic_costs_more_energy(self, cls):
        light = make_model(cls, sampling_period=1200.0)
        heavy = make_model(cls, sampling_period=300.0)
        params = midpoint(light)
        assert heavy.system_energy(params) > light.system_energy(params)

    def test_deeper_network_has_larger_delay(self, cls):
        shallow = make_model(cls, depth=3)
        deep = make_model(cls, depth=6)
        params = midpoint(shallow)
        assert deep.system_latency(params) > shallow.system_latency(params)

    def test_lifetime_decreases_with_energy(self, cls):
        model = make_model(cls)
        space = model.parameter_space
        low_energy_point = None
        high_energy_point = None
        for point in space.grid(9):
            energy = model.system_energy(point)
            if low_energy_point is None or energy < model.system_energy(low_energy_point):
                low_energy_point = point
            if high_energy_point is None or energy > model.system_energy(high_energy_point):
                high_energy_point = point
        assert model.lifetime_days(low_energy_point) > model.lifetime_days(high_energy_point)

    def test_constraint_margins_include_bounds(self, cls):
        model = make_model(cls)
        margins = model.constraint_margins(midpoint(model))
        assert len(margins) == 1 + 2 * model.parameter_space.dimension
        assert all(margin >= 0 for margin in margins[1:])

    def test_scenario_round_trip(self, cls):
        model = make_model(cls)
        assert model.scenario.depth == 4
        assert model.traffic.sampling_rate == pytest.approx(1.0 / 600.0)
