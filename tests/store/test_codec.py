"""GameSolution JSON codec: exact round-trips, strict decode errors."""

from __future__ import annotations

import json

import pytest

from repro.core.requirements import ApplicationRequirements
from repro.core.tradeoff import EnergyDelayGame
from repro.exceptions import StoreError
from repro.network.topology import RingTopology
from repro.protocols.xmac import XMACModel
from repro.scenario import Scenario
from repro.store import solution_from_payload, solution_to_payload

FAST = {"grid_points_per_dimension": 15}


@pytest.fixture(scope="module")
def solution():
    scenario = Scenario(topology=RingTopology(depth=4, density=6), sampling_rate=1 / 600)
    requirements = ApplicationRequirements(
        energy_budget=0.06, max_delay=6.0, sampling_rate=scenario.sampling_rate
    )
    return EnergyDelayGame(XMACModel(scenario), requirements, **FAST).solve()


class TestRoundTrip:
    def test_exact_equality(self, solution):
        assert solution_from_payload(solution_to_payload(solution)) == solution

    def test_survives_json_serialization(self, solution):
        # The store writes the payload through json.dumps; shortest-repr
        # float round-tripping must make the decoded solution bit-identical.
        payload = json.loads(json.dumps(solution_to_payload(solution)))
        decoded = solution_from_payload(payload)
        assert decoded == solution
        assert decoded.bargaining.point.energy == solution.bargaining.point.energy
        assert decoded.bargaining.point.parameters == solution.bargaining.point.parameters

    def test_payload_is_plain_json(self, solution):
        payload = solution_to_payload(solution)
        text = json.dumps(payload, sort_keys=True)
        assert json.loads(text) == payload

    def test_solver_metadata_preserved(self, solution):
        decoded = solution_from_payload(solution_to_payload(solution))
        assert decoded.bargaining.solver == solution.bargaining.solver
        assert decoded.bargaining.evaluations == solution.bargaining.evaluations
        assert decoded.energy_optimum.binding_constraint == (
            solution.energy_optimum.binding_constraint
        )


class TestDecodeErrors:
    def test_missing_field(self, solution):
        payload = solution_to_payload(solution)
        del payload["bargaining"]
        with pytest.raises(StoreError, match="malformed solve payload"):
            solution_from_payload(payload)

    def test_wrong_shape(self):
        with pytest.raises(StoreError):
            solution_from_payload({"protocol": "xmac"})

    def test_foreign_kind_payload(self):
        # A replication payload filed under a solve key must error, not
        # produce a garbage solution.
        replication_payload = {
            "seed": 1,
            "energy": 0.001,
            "delay": 0.5,
            "delivery_ratio": 1.0,
            "generated": 10,
            "delivered": 10,
            "dropped": 0,
        }
        with pytest.raises(StoreError):
            solution_from_payload(replication_payload)

    def test_non_numeric_field(self, solution):
        payload = solution_to_payload(solution)
        payload["energy_budget"] = "not-a-number"
        with pytest.raises(StoreError):
            solution_from_payload(payload)
