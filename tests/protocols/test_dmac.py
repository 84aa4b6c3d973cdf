"""DMAC specific model tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.network.topology import RingTopology
from repro.protocols.dmac import DMACModel
from repro.scenario import Scenario


class TestDMACModel:
    def test_single_tunable_parameter(self, dmac: DMACModel):
        assert dmac.parameter_space.names == [DMACModel.FRAME_LENGTH]

    def test_slot_time_covers_contention_and_exchange(self, dmac: DMACModel):
        packets = dmac.scenario.packets
        radio = dmac.scenario.radio
        assert dmac.slot_time > packets.data_airtime(radio) + packets.ack_airtime(radio)

    def test_min_frame_holds_three_slots(self, dmac: DMACModel):
        assert dmac.min_frame == pytest.approx(3.0 * dmac.slot_time)

    def test_energy_monotonically_decreases_with_frame_length(self, dmac: DMACModel):
        space = dmac.parameter_space
        grid = np.linspace(space.lower_bounds[0], space.upper_bounds[0], 30)
        energies = [dmac.system_energy([f]) for f in grid]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(energies, energies[1:]))

    def test_latency_increases_with_frame_length(self, dmac: DMACModel):
        assert dmac.system_latency([4.0]) > dmac.system_latency([1.0])

    def test_e2e_latency_is_half_frame_plus_one_slot_per_hop(self, dmac: DMACModel):
        frame = 2.0
        expected = 0.5 * frame + dmac.scenario.depth * dmac.slot_time
        assert dmac.system_latency([frame]) == pytest.approx(expected)

    def test_staggered_hop_latency_is_one_slot(self, dmac: DMACModel):
        assert dmac.hop_latency([2.0], 2) == pytest.approx(dmac.slot_time)

    def test_sync_costs_present(self, dmac: DMACModel):
        breakdown = dmac.energy_breakdown([2.0], 1)
        assert breakdown.sync_transmit > 0
        assert breakdown.sync_receive > 0

    def test_idle_listening_dominates_at_low_traffic(self, dmac: DMACModel):
        breakdown = dmac.energy_breakdown([1.0], dmac.scenario.depth)
        assert breakdown.carrier_sense > breakdown.transmit

    def test_capacity_margin_accounts_for_collision_domain(self):
        # Heavy traffic: the whole network's packets funnel through ring 1's
        # shared transmit slot, so long frames become infeasible.
        scenario = Scenario(topology=RingTopology(depth=5, density=8), sampling_rate=1.0 / 60.0)
        model = DMACModel(scenario)
        assert model.capacity_margin([0.2]) > 0
        assert model.capacity_margin([9.0]) < 0

    def test_max_frame_capped_by_sampling_period(self):
        scenario = Scenario(topology=RingTopology(depth=3, density=4), sampling_rate=1.0 / 5.0)
        model = DMACModel(scenario, max_frame=20.0)
        assert model.parameter_space[DMACModel.FRAME_LENGTH].upper == pytest.approx(5.0)

    def test_invalid_contention_window_rejected(self, small_scenario):
        with pytest.raises(ConfigurationError):
            DMACModel(small_scenario, contention_window=0.0)

    def test_invalid_max_frame_rejected(self, small_scenario):
        with pytest.raises(ConfigurationError):
            DMACModel(small_scenario, max_frame=0.01)
