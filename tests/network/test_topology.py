"""Unit tests for the ring topology and concrete deployments."""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pytest

from deployment_fixtures import chain_deployment, generate_deployment
from repro.exceptions import ConfigurationError
from repro.network.deployment import (
    MAX_DEPLOYMENT_NODES,
    _rings_and_tree,
    _unit_disk_graph,
    check_node_count,
    ring_deployment,
)
from repro.network.topology import RingTopology, UnitDiskDeployment
from repro.simulation.runner import SimulationConfig


class TestRingTopology:
    def test_nodes_in_ring_follows_annulus_area(self):
        topology = RingTopology(depth=5, density=8)
        assert topology.nodes_in_ring(1) == 8
        assert topology.nodes_in_ring(2) == 24
        assert topology.nodes_in_ring(5) == 8 * 9

    def test_total_nodes_is_density_times_depth_squared(self):
        topology = RingTopology(depth=5, density=8)
        assert topology.total_nodes() == 8 * 25
        assert topology.total_nodes() == pytest.approx(
            sum(topology.nodes_in_ring(d) for d in topology.rings())
        )

    def test_descendants_decrease_with_ring(self):
        topology = RingTopology(depth=6, density=4)
        descendants = [topology.descendants_per_node(d) for d in topology.rings()]
        assert descendants == sorted(descendants, reverse=True)
        assert descendants[-1] == 0.0

    def test_ring1_descendants_cover_the_rest_of_the_network(self):
        topology = RingTopology(depth=5, density=8)
        # D^2 - 1 descendants split over the (2*1 - 1) = 1 "slots" per node.
        assert topology.descendants_per_node(1) == pytest.approx(24.0)

    def test_children_per_node_positive_except_last_ring(self):
        topology = RingTopology(depth=4, density=5)
        for ring in range(1, 4):
            assert topology.children_per_node(ring) > 0
        assert topology.children_per_node(4) == 0.0

    def test_bottleneck_ring(self):
        topology = RingTopology(depth=7, density=3)
        assert topology.bottleneck_ring == 1

    def test_invalid_ring_index_rejected(self):
        topology = RingTopology(depth=3, density=3)
        with pytest.raises(ConfigurationError):
            topology.nodes_in_ring(0)
        with pytest.raises(ConfigurationError):
            topology.nodes_in_ring(4)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            RingTopology(depth=0, density=5)
        with pytest.raises(ConfigurationError):
            RingTopology(depth=5, density=0)

    def test_describe_contains_totals(self):
        info = RingTopology(depth=3, density=4).describe()
        assert info["total_nodes"] == 36


def csr(rows):
    """``(indptr, indices)`` of a graph given as one neighbour list per node."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return indptr, np.array([node for row in rows for node in row], dtype=np.int64)


def path_to_sink(deployment, node):
    """The tree path from ``node`` to the sink, inclusive, along ``parent``."""
    path = [node]
    while deployment.parent[path[-1]] >= 0:
        path.append(int(deployment.parent[path[-1]]))
    return path


class TestDeployments:
    def test_chain_deployment_depth_and_parents(self):
        deployment = chain_deployment(depth=5)
        assert deployment.depth == 5
        assert deployment.parent.tolist() == [-1, 0, 1, 2, 3, 4]
        assert path_to_sink(deployment, 5) == [5, 4, 3, 2, 1, 0]

    def test_ring_deployment_matches_analytical_populations(self):
        deployment = ring_deployment(depth=3, density=5, seed=2)
        assert np.bincount(deployment.ring).tolist() == [1, 5, 15, 25]
        assert deployment.depth == 3

    def test_ring_deployment_every_node_routes_to_sink(self):
        deployment = ring_deployment(depth=3, density=4, seed=0)
        for node in range(1, len(deployment.ring)):
            path = path_to_sink(deployment, node)
            assert path[-1] == 0
            assert len(path) - 1 == deployment.ring[node]

    def test_ring_deployment_balances_children(self):
        deployment = ring_deployment(depth=3, density=6, seed=1)
        # Each ring-1 node's load: the nodes whose path to the sink crosses it.
        loads = Counter(
            path_to_sink(deployment, node)[-2] for node in range(1, len(deployment.ring))
        )
        assert len(loads) == 6
        assert max(loads.values()) <= 2 * min(loads.values())

    def test_generate_deployment_is_connected_and_reproducible(self):
        first = generate_deployment(depth=3, density=8, seed=7)
        second = generate_deployment(depth=3, density=8, seed=7)
        assert first == second
        assert np.array_equal(first.positions, second.positions)
        assert first != generate_deployment(depth=3, density=8, seed=8)

    def test_tree_balances_parents(self):
        # Two relays at one hop; the four outer nodes alternate between them
        # (fewest children first, then the smaller id).
        indptr, indices = csr(
            [(1, 2), (0, 3, 4, 5, 6), (0, 3, 4, 5, 6), (1, 2), (1, 2), (1, 2), (1, 2)]
        )
        ring, parent = _rings_and_tree(indptr, indices)
        assert ring == [0, 1, 1, 2, 2, 2, 2]
        assert parent == [-1, 0, 0, 1, 2, 1, 2]

    def test_disconnected_graph_has_no_tree(self):
        ring, parent = _rings_and_tree(*csr([(1,), (0, 2), (1,), ()]))
        assert ring == [0, 1, 2, -1]
        assert parent is None

    def test_deployment_graph_and_tree_are_index_arrays(self):
        deployment = chain_deployment(depth=3)
        assert deployment.positions.shape == (4, 2)
        assert deployment.indptr.tolist() == [0, 1, 3, 5, 6]
        assert deployment.indices.tolist() == [1, 0, 2, 1, 3, 2]
        assert deployment.ring.tolist() == [0, 1, 2, 3]
        assert deployment.parent.tolist() == [-1, 0, 1, 2]
        with pytest.raises(ValueError):
            deployment.parent[1] = 2  # read-only

    def test_neighbours_of_returns_a_fresh_ascending_list(self):
        deployment = ring_deployment(depth=2, density=4, seed=0)
        for node in range(len(deployment.ring)):
            neighbours = deployment.neighbours_of(node)
            assert isinstance(neighbours, list)
            assert neighbours == sorted(neighbours)
            neighbours.append(-1)  # the caller's copy, not the graph
            assert -1 not in deployment.neighbours_of(node)

    def test_ring_deployment_invalid_spacing_rejected(self):
        with pytest.raises(ConfigurationError):
            ring_deployment(depth=3, density=4, spacing_factor=0.95)


class TestRefusals:
    """What a too-sparse ring deployment says: its shape, and what to change."""

    def test_disconnected(self):
        with pytest.raises(ConfigurationError) as caught:
            ring_deployment(depth=3, density=2, seed=1)
        assert str(caught.value) == (
            "ring deployment of depth 3, density 2, seed 1 is disconnected; "
            "raise the density"
        )

    def test_too_deep(self):
        with pytest.raises(ConfigurationError) as caught:
            ring_deployment(depth=3, density=3, seed=0)
        assert str(caught.value) == (
            "ring deployment of depth 3, density 3, seed 0 produced depth 5; "
            "raise the density"
        )

    def test_too_shallow(self):
        # Only a spacing below the default puts a ring within reach of the
        # ring two inward; no spec sets the spacing.
        with pytest.raises(ConfigurationError) as caught:
            ring_deployment(depth=4, density=3, spacing_factor=0.5)
        assert str(caught.value) == (
            "ring deployment of depth 4, density 3, seed 0 produced depth 3; "
            "raise spacing_factor"
        )

    @pytest.mark.parametrize("depth", [2, 3, 5])
    def test_density_four_is_enough(self, depth):
        for seed in range(5):
            assert ring_deployment(depth=depth, density=4, seed=seed).depth == depth


def chain_arrays(**overrides):
    """The arrays of sink — 1 — 2 — 3, with ``overrides`` replacing some."""
    deployment = chain_deployment(depth=3)
    fields = {
        name: getattr(deployment, name)
        for name in ("positions", "radius", "indptr", "indices", "ring", "parent")
    }
    fields.update(overrides)
    return fields


class TestConstructionChecks:
    """A hand-built deployment is checked when it is made, not in the engine."""

    def test_the_chain_arrays_are_accepted(self):
        assert UnitDiskDeployment(**chain_arrays()) == chain_deployment(depth=3)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("positions", np.zeros((3, 2)), "positions has shape (3, 2), expected (4, 2)"),
            ("parent", [-1, 0, 1], "parent has shape (3,), expected (4,)"),
            ("indptr", [0, 1, 3, 5], "indptr has shape (4,), expected (5,)"),
        ],
        ids=["positions", "parent", "indptr"],
    )
    def test_arrays_that_disagree_on_the_node_count(self, name, value, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            UnitDiskDeployment(**chain_arrays(**{name: value}))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"indices": [1, 0, 2, 1, 4, 2]},
            {"indices": [1, 0, 2, 1, 3]},
            {"indptr": [0, 1, 3, 2, 6]},
        ],
        ids=["index-out-of-range", "too-few-indices", "indptr-decreasing"],
    )
    def test_indptr_and_indices_must_be_a_graph(self, overrides):
        with pytest.raises(ConfigurationError, match="not a graph of 4 node"):
            UnitDiskDeployment(**chain_arrays(**overrides))

    @pytest.mark.parametrize(
        "overrides",
        [{"parent": [0, 0, 1, 2]}, {"ring": [1, 1, 2, 3]}],
        ids=["sink-with-a-parent", "sink-off-ring-0"],
    )
    def test_row_zero_must_be_the_sink(self, overrides):
        with pytest.raises(ConfigurationError, match="row 0 must be the sink"):
            UnitDiskDeployment(**chain_arrays(**overrides))

    @pytest.mark.parametrize(
        "parent, message",
        [
            ([-1, 0, 1, -1], "node 3 (ring 3) has no parent one ring inward: its parent is -1"),
            ([-1, 0, 1, 1], "node 3 (ring 3) has no parent one ring inward: its parent is 1"),
            ([-1, 0, 1, 7], "node 3 (ring 3) has no parent one ring inward: its parent is 7"),
        ],
        ids=["no-parent", "parent-two-rings-in", "parent-not-a-node"],
    )
    def test_a_node_without_a_parent_one_ring_inward(self, parent, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            UnitDiskDeployment(**chain_arrays(parent=parent))

    def test_a_parent_must_be_a_neighbour(self):
        # Nodes 1 and 2 both sit on ring 1, but only node 1 reaches node 3.
        indptr, indices = csr([(1, 2), (0, 3), (0,), (1,)])
        fields = chain_arrays(indptr=indptr, indices=indices, ring=[0, 1, 1, 2])
        UnitDiskDeployment(**dict(fields, parent=[-1, 0, 0, 1]))
        message = "node 3 (ring 2) has no parent one ring inward: its parent is 2"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            UnitDiskDeployment(**dict(fields, parent=[-1, 0, 0, 2]))

    def test_simulation_configs_compare_their_deployments_by_value(self):
        deployment = chain_deployment(depth=3)
        config = SimulationConfig(deployment=deployment)
        assert config == SimulationConfig(deployment=chain_deployment(depth=3))
        assert config != SimulationConfig(deployment=chain_deployment(depth=4))
        assert config != SimulationConfig()


def dense_unit_disk_graph(coords, radius):
    """The CSR graph from every pair's offset, (i, j) as coords[j] - coords[i]."""
    dx = coords[None, :, 0] - coords[:, None, 0]
    dy = coords[None, :, 1] - coords[:, None, 1]
    linked = np.triu(np.hypot(dx, dy) <= radius, k=1)
    linked |= linked.T
    return csr([np.flatnonzero(row).tolist() for row in linked])


class TestUnitDiskGraph:
    """Measuring each pair once must not move a single link."""

    @pytest.mark.parametrize(
        "deployment",
        [
            ring_deployment(depth=3, density=8, seed=0),
            ring_deployment(depth=7, density=8, seed=4),
            generate_deployment(depth=3, density=8, seed=7),
            generate_deployment(depth=8, density=10, seed=2),
            chain_deployment(depth=9),
            chain_deployment(depth=70, spacing=50.0),  # every link exactly at the radius
        ],
        ids=["ring-72", "ring-392", "random-72", "random-640", "chain-10", "chain-71-on-radius"],
    )
    def test_matches_the_dense_formula(self, deployment):
        indptr, indices = dense_unit_disk_graph(deployment.positions, deployment.radius)
        built = _unit_disk_graph(deployment.positions, deployment.radius)
        assert [array.tolist() for array in built] == [indptr.tolist(), indices.tolist()]
        assert deployment.indptr.tolist() == indptr.tolist()
        assert deployment.indices.tolist() == indices.tolist()


class TestDeploymentSizeLimit:
    """Past MAX_DEPLOYMENT_NODES sensor nodes, a deployment is refused before
    any position is sampled (its n×n distance arrays would not fit)."""

    OVERSIZED = [(300, 300), (1, 4001), (20, 11)]

    @pytest.fixture(autouse=True)
    def _no_sampling(self, monkeypatch):
        def sampled(*_args, **_kwargs):
            raise AssertionError("a position was sampled")

        monkeypatch.setattr(np.random, "default_rng", sampled)

    @pytest.mark.parametrize("depth, density", OVERSIZED)
    def test_ring_deployment_refuses(self, depth, density):
        with pytest.raises(
            ConfigurationError,
            match=f"^{density * depth**2} sensor nodes exceed the deployment limit of 4000$",
        ):
            ring_deployment(depth=depth, density=density)

    @pytest.mark.parametrize("depth, density", OVERSIZED)
    def test_generate_deployment_refuses(self, depth, density):
        with pytest.raises(ConfigurationError, match=f"^{density * depth**2} sensor nodes"):
            generate_deployment(depth=depth, density=density)

    def test_limit_is_inclusive(self):
        assert MAX_DEPLOYMENT_NODES == 4000
        check_node_count(MAX_DEPLOYMENT_NODES)
        with pytest.raises(ConfigurationError):
            check_node_count(MAX_DEPLOYMENT_NODES + 1)
