"""Unit tests for the periodic traffic model."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.network.topology import RingTopology
from repro.network.traffic import TrafficModel


@pytest.fixture
def traffic() -> TrafficModel:
    return TrafficModel(RingTopology(depth=5, density=8), sampling_rate=0.01)


class TestTrafficModel:
    def test_output_rate_formula_ring1(self, traffic: TrafficModel):
        # F_out(1) = Fs * D^2 / 1
        assert traffic.output_rate(1) == pytest.approx(0.01 * 25)

    def test_output_rate_formula_general(self, traffic: TrafficModel):
        for ring in range(1, 6):
            expected = 0.01 * (25 - (ring - 1) ** 2) / (2 * ring - 1)
            assert traffic.output_rate(ring) == pytest.approx(expected)

    def test_outermost_ring_only_sends_own_traffic(self, traffic: TrafficModel):
        assert traffic.output_rate(5) == pytest.approx(traffic.sampling_rate)
        assert traffic.input_rate(5) == pytest.approx(0.0)

    def test_flow_conservation_per_ring(self, traffic: TrafficModel):
        for ring in range(1, 6):
            assert traffic.output_rate(ring) == pytest.approx(
                traffic.input_rate(ring) + traffic.sampling_rate
            )

    def test_network_flow_conservation_at_sink(self, traffic: TrafficModel):
        # Everything that ring-1 nodes transmit arrives at the sink.
        topology = traffic.topology
        ring1_total = traffic.output_rate(1) * topology.nodes_in_ring(1)
        assert ring1_total == pytest.approx(traffic.sink_arrival_rate())

    def test_background_rate_nonnegative_and_scales_with_density(self):
        sparse = TrafficModel(RingTopology(depth=4, density=3), 0.01)
        dense = TrafficModel(RingTopology(depth=4, density=12), 0.01)
        for ring in range(1, 5):
            assert sparse.background_rate(ring) >= 0
            assert dense.background_rate(ring) > sparse.background_rate(ring)

    def test_input_links_match_topology(self, traffic: TrafficModel):
        assert traffic.input_links(5) == 0.0
        assert traffic.input_links(1) == pytest.approx(3.0)

    def test_ring_traffic_bundle_consistency(self, traffic: TrafficModel):
        bundle = traffic.ring_traffic(2)
        assert bundle.output == pytest.approx(traffic.output_rate(2))

    def test_all_rings_returns_every_ring(self, traffic: TrafficModel):
        assert sorted(traffic.all_rings()) == [1, 2, 3, 4, 5]

    def test_bottleneck_is_ring_one(self, traffic: TrafficModel):
        rates = [traffic.output_rate(ring) for ring in range(1, 6)]
        assert traffic.bottleneck_output_rate() == pytest.approx(max(rates))

    def test_offered_load_counts_hops(self):
        traffic = TrafficModel(RingTopology(depth=2, density=1), sampling_rate=1.0)
        # ring1: 1 node at 1 hop, ring2: 3 nodes at 2 hops -> 1 + 6 = 7 transmissions/s
        assert traffic.network_offered_load() == pytest.approx(7.0)

    def test_sampling_period_inverse_of_rate(self, traffic: TrafficModel):
        assert traffic.sampling_period == pytest.approx(100.0)

    def test_invalid_sampling_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficModel(RingTopology(depth=3, density=3), sampling_rate=0.0)

    def test_invalid_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficModel("not-a-topology", sampling_rate=0.1)  # type: ignore[arg-type]

    def test_describe_contains_rates(self, traffic: TrafficModel):
        description = traffic.describe()
        assert description["sampling_rate_hz"] == pytest.approx(0.01)
        assert description["sink_arrival_rate_hz"] == pytest.approx(0.01 * 200)
