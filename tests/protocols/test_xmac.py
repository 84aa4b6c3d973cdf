"""X-MAC specific model tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.network.topology import RingTopology
from repro.protocols.xmac import XMACModel
from repro.scenario import Scenario


class TestXMACModel:
    def test_single_tunable_parameter(self, xmac: XMACModel):
        assert xmac.parameter_space.names == [XMACModel.WAKEUP_INTERVAL]

    def test_upper_bound_capped_by_sampling_period(self):
        scenario = Scenario(topology=RingTopology(depth=3, density=4), sampling_rate=1.0 / 2.0)
        model = XMACModel(scenario, max_wakeup_interval=10.0)
        assert model.parameter_space[XMACModel.WAKEUP_INTERVAL].upper == pytest.approx(2.0)

    def test_inconsistent_bounds_rejected(self, small_scenario):
        with pytest.raises(ConfigurationError):
            XMACModel(small_scenario, min_wakeup_interval=2.0, max_wakeup_interval=1.0)

    def test_energy_is_u_shaped_in_wakeup_interval(self, xmac: XMACModel):
        space = xmac.parameter_space
        grid = np.geomspace(space.lower_bounds[0], space.upper_bounds[0], 60)
        energies = [xmac.system_energy([w]) for w in grid]
        best = int(np.argmin(energies))
        # Interior minimum: polling dominates on the left, strobing on the right.
        assert 0 < best < len(grid) - 1
        assert energies[0] > energies[best]
        assert energies[-1] > energies[best]

    def test_latency_increases_linearly_with_wakeup_interval(self, xmac: XMACModel):
        slow = xmac.system_latency([2.0])
        fast = xmac.system_latency([0.2])
        assert slow > fast
        depth = xmac.scenario.depth
        assert slow - fast == pytest.approx(depth * 0.5 * (2.0 - 0.2), rel=1e-6)

    def test_carrier_sense_energy_scales_inversely_with_wakeup(self, xmac: XMACModel):
        short = xmac.energy_breakdown([0.1], 1).carrier_sense
        long = xmac.energy_breakdown([1.0], 1).carrier_sense
        assert short == pytest.approx(10.0 * long, rel=1e-9)

    def test_transmit_energy_grows_with_wakeup(self, xmac: XMACModel):
        assert xmac.energy_breakdown([1.0], 1).transmit > xmac.energy_breakdown([0.1], 1).transmit

    def test_no_sync_cost(self, xmac: XMACModel):
        breakdown = xmac.energy_breakdown([0.5], 1)
        assert breakdown.sync_transmit == 0.0
        assert breakdown.sync_receive == 0.0

    def test_outer_ring_has_no_reception_cost(self, xmac: XMACModel):
        breakdown = xmac.energy_breakdown([0.5], xmac.scenario.depth)
        assert breakdown.receive == pytest.approx(0.0)

    def test_capacity_margin_shrinks_with_wakeup_interval(self, xmac: XMACModel):
        assert xmac.capacity_margin([0.1]) > xmac.capacity_margin([3.0])

    def test_capacity_violated_under_heavy_traffic_and_long_wakeup(self):
        scenario = Scenario(topology=RingTopology(depth=6, density=8), sampling_rate=1.0 / 20.0)
        model = XMACModel(scenario)
        assert model.capacity_margin([5.0]) < 0
        assert not model.is_admissible([5.0])

    def test_duty_cycle_decreases_then_increases(self, xmac: XMACModel):
        # Very frequent polling keeps the radio busy; very long intervals make
        # every transmission strobe for a long time.
        duties = [xmac.duty_cycle([w], 1) for w in (0.02, 0.4, 4.0)]
        assert duties[0] > duties[1]
        assert duties[2] > duties[1]
