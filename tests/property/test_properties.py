"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finite_bargaining import BargainingGame, nash_bargaining_solution
from repro.core.fairness import proportional_fairness_residual
from repro.core.parameters import Parameter, ParameterSpace
from repro.network.topology import RingTopology
from repro.network.traffic import TrafficModel
from repro.protocols import XMACModel
from repro.protocols.registry import available_protocols, create_protocol
from repro.scenario import Scenario
from repro.scenarios import available_scenarios, scenario_preset
from scalar_reference.mac.base import next_occurrence

COMMON_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

finite_floats = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)


class TestTrafficInvariants:
    @COMMON_SETTINGS
    @given(
        depth=st.integers(min_value=1, max_value=12),
        density=st.integers(min_value=1, max_value=20),
        rate=st.floats(min_value=1e-5, max_value=1.0),
    )
    def test_flow_conservation_everywhere(self, depth, density, rate):
        traffic = TrafficModel(RingTopology(depth=depth, density=density), rate)
        for ring in range(1, depth + 1):
            assert traffic.output_rate(ring) == pytest.approx(
                traffic.input_rate(ring) + rate
            )
            assert traffic.input_rate(ring) >= -1e-12
            assert traffic.background_rate(ring) >= 0.0

    @COMMON_SETTINGS
    @given(
        depth=st.integers(min_value=1, max_value=12),
        density=st.integers(min_value=1, max_value=20),
        rate=st.floats(min_value=1e-5, max_value=1.0),
    )
    def test_total_ring1_traffic_equals_sink_arrivals(self, depth, density, rate):
        topology = RingTopology(depth=depth, density=density)
        traffic = TrafficModel(topology, rate)
        ring1_total = traffic.output_rate(1) * topology.nodes_in_ring(1)
        assert ring1_total == pytest.approx(traffic.sink_arrival_rate(), rel=1e-9)


class TestParameterSpaceProperties:
    @COMMON_SETTINGS
    @given(
        lower=st.floats(min_value=-100, max_value=100, allow_nan=False),
        span=st.floats(min_value=1e-6, max_value=100),
        value=st.floats(min_value=-500, max_value=500, allow_nan=False),
    )
    def test_clip_always_lands_inside(self, lower, span, value):
        parameter = Parameter("x", lower, lower + span)
        clipped = parameter.clip(value)
        assert parameter.contains(clipped)

    @COMMON_SETTINGS
    @given(
        values=st.lists(finite_floats, min_size=1, max_size=4),
    )
    def test_dict_array_round_trip(self, values):
        space = ParameterSpace(
            [Parameter(f"p{i}", 0.0, 2000.0) for i in range(len(values))]
        )
        as_dict = {f"p{i}": v for i, v in enumerate(values)}
        assert space.to_dict(space.to_array(as_dict)) == pytest.approx(as_dict)


class TestNashSolutionProperties:
    @COMMON_SETTINGS
    @given(
        payoffs=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            ),
            min_size=2,
            max_size=50,
        )
    )
    def test_nash_point_is_individually_rational_and_efficient(self, payoffs):
        game = BargainingGame(payoffs, disagreement=(0.0, 0.0))
        point = nash_bargaining_solution(game)
        assert point.gains[0] >= -1e-12 and point.gains[1] >= -1e-12
        # Exact (tolerance-0) domination: the solver's product argmax with
        # min-gain/total-gain tie-breaks is Pareto-efficient under exact
        # comparison.  An epsilon-tolerant check would be inconsistent with
        # Nash-product maximization when a player's gain is below epsilon,
        # e.g. (1e-9, 1) maximizes the product yet is "1e-9-dominated" by
        # (0, 2).
        assert game.is_pareto_efficient(point.index, tolerance=0.0)

    @COMMON_SETTINGS
    @given(
        payoffs=st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
                st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
            ),
            min_size=2,
            max_size=30,
        ),
        scale1=st.floats(min_value=0.1, max_value=10.0),
        scale2=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_nash_solution_is_scale_invariant(self, payoffs, scale1, scale2):
        game = BargainingGame(payoffs, disagreement=(0.0, 0.0))
        original = nash_bargaining_solution(game)
        scaled = nash_bargaining_solution(game.rescaled((scale1, scale2), (0.0, 0.0)))
        assert scaled.payoff[0] == pytest.approx(original.payoff[0] * scale1, rel=1e-6)
        assert scaled.payoff[1] == pytest.approx(original.payoff[1] * scale2, rel=1e-6)


class TestFairnessProperties:
    @COMMON_SETTINGS
    @given(
        best_energy=st.floats(min_value=0.001, max_value=0.01),
        worst_energy=st.floats(min_value=0.02, max_value=0.1),
        best_delay=st.floats(min_value=0.01, max_value=0.5),
        worst_delay=st.floats(min_value=1.0, max_value=10.0),
        share=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_equal_shares_always_have_zero_residual(
        self, best_energy, worst_energy, best_delay, worst_delay, share
    ):
        energy_star = worst_energy + share * (best_energy - worst_energy)
        delay_star = worst_delay + share * (best_delay - worst_delay)
        residual = proportional_fairness_residual(
            energy_star, delay_star, best_energy, worst_energy, best_delay, worst_delay
        )
        assert residual == pytest.approx(0.0, abs=1e-9)


class TestSchedulingProperties:
    @COMMON_SETTINGS
    @given(
        now=st.floats(min_value=0.0, max_value=1e4),
        period=st.floats(min_value=1e-3, max_value=100.0),
        offset=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_next_occurrence_is_on_schedule_and_not_in_the_past(self, now, period, offset):
        occurrence = next_occurrence(now, period, offset)
        assert occurrence >= now - 1e-9
        cycles = (occurrence - offset) / period
        assert cycles == pytest.approx(round(cycles), abs=1e-6)
        if now >= offset:
            # Once the schedule has started, the wait never exceeds one period.
            assert occurrence - now <= period * (1 + 1e-6)
        else:
            # Before the schedule starts, the first occurrence is the offset.
            assert occurrence == pytest.approx(offset)


class TestProtocolModelProperties:
    @COMMON_SETTINGS
    @given(wakeup=st.floats(min_value=0.02, max_value=4.0))
    def test_xmac_metrics_always_finite_and_positive(self, wakeup):
        scenario = Scenario(
            topology=RingTopology(depth=4, density=6), sampling_rate=1.0 / 600.0
        )
        model = XMACModel(scenario)
        energy = model.system_energy({"wakeup_interval": wakeup})
        delay = model.system_latency({"wakeup_interval": wakeup})
        assert np.isfinite(energy) and energy > 0
        assert np.isfinite(delay) and delay > 0
        assert energy <= scenario.radio.always_on_power * 1.05


@functools.lru_cache(maxsize=None)
def _preset_model(scenario: str, protocol: str):
    return create_protocol(protocol, scenario_preset(scenario).scenario)


#: Rows inside the unit cube, mapped onto each model's parameter box.
unit_rows = st.lists(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2),
    min_size=1,
    max_size=8,
)


class TestBatchedModelProperties:
    """The batched ``.many`` paths skip ``EnergyBreakdown`` validation, so
    they are checked here directly: inside every built-in protocol's box,
    under every scenario preset, energy and delay are finite and positive
    and the capacity margin is finite."""

    @pytest.mark.parametrize("protocol", available_protocols())
    @pytest.mark.parametrize("scenario", available_scenarios())
    @settings(max_examples=25, deadline=None)
    @given(fractions=unit_rows)
    def test_many_paths_finite_inside_the_box(self, scenario, protocol, fractions):
        model = _preset_model(scenario, protocol)
        space = model.parameter_space
        lower, upper = space.lower_bounds, space.upper_bounds
        dimension = lower.size
        interior = np.array([row[:dimension] for row in fractions]) * (upper - lower) + lower
        grid = np.clip(np.vstack([lower, upper, interior]), lower, upper)
        energy = model.energy_many(grid)
        latency = model.latency_many(grid)
        margin = model.capacity_margin_many(grid)
        assert np.all(np.isfinite(energy)) and np.all(energy > 0), grid[~(energy > 0)]
        assert np.all(np.isfinite(latency)) and np.all(latency > 0), grid[~(latency > 0)]
        assert np.all(np.isfinite(margin)), grid[~np.isfinite(margin)]
