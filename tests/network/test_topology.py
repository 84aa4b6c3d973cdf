"""Unit tests for the ring topology and concrete deployments."""

from __future__ import annotations

import numpy as np
import pytest

from deployment_fixtures import chain_deployment, generate_deployment
from repro.exceptions import ConfigurationError
from repro.network.deployment import (
    MAX_DEPLOYMENT_NODES,
    _unit_disk_graph,
    check_node_count,
    ring_deployment,
)
from repro.network.topology import (
    RingTopology,
    build_gathering_tree,
    hop_distances,
    ring_histogram,
)


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

    def test_bottleneck_and_delay_critical_rings(self):
        topology = RingTopology(depth=7, density=3)
        assert topology.bottleneck_ring == 1
        assert topology.delay_critical_ring == 7

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


class TestDeployments:
    def test_chain_deployment_depth_and_parents(self):
        deployment = chain_deployment(depth=5)
        assert deployment.depth == 5
        assert deployment.parent_of(3) == 2
        assert deployment.parent_of(1) == 0
        assert deployment.path_to_sink(5) == [5, 4, 3, 2, 1, 0]

    def test_chain_subtree_sizes(self):
        deployment = chain_deployment(depth=4)
        assert deployment.subtree_size(1) == 4
        assert deployment.subtree_size(4) == 1

    def test_ring_deployment_matches_analytical_populations(self):
        deployment = ring_deployment(depth=3, density=5, seed=2)
        histogram = ring_histogram(deployment)
        assert histogram == {1: 5, 2: 15, 3: 25}
        assert deployment.depth == 3

    def test_ring_deployment_every_node_routes_to_sink(self):
        deployment = ring_deployment(depth=3, density=4, seed=0)
        for node in deployment.sensor_ids:
            path = deployment.path_to_sink(node)
            assert path[-1] == 0
            assert len(path) - 1 == deployment.ring_of[node]

    def test_ring_deployment_balances_children(self):
        deployment = ring_deployment(depth=3, density=6, seed=1)
        ring1 = deployment.nodes_in_ring(1)
        loads = [deployment.subtree_size(node) for node in ring1]
        assert max(loads) <= 2 * min(loads)

    def test_generate_deployment_is_connected_and_reproducible(self):
        first = generate_deployment(depth=3, density=8, seed=7)
        second = generate_deployment(depth=3, density=8, seed=7)
        assert first.positions == second.positions
        assert set(first.sensor_ids) == set(second.sensor_ids)

    def test_generate_deployment_summary_roundtrip(self):
        deployment = generate_deployment(depth=3, density=8, seed=7)
        summary = deployment.to_ring_topology()
        assert summary.depth == deployment.depth
        assert summary.density >= 1

    def test_build_gathering_tree_rejects_disconnected_graph(self):
        graph = {0: (1,), 1: (0,), 2: ()}
        with pytest.raises(ConfigurationError, match=r"1 node\(s\) have no path"):
            build_gathering_tree(graph, sink=0)

    def test_build_gathering_tree_requires_known_sink(self):
        graph = {0: (1,), 1: (0, 2), 2: (1,)}
        with pytest.raises(ConfigurationError, match="sink node 99"):
            build_gathering_tree(graph, sink=99)

    def test_build_gathering_tree_balances_parents_on_a_plain_dict(self):
        # Two relays at one hop; the four outer nodes alternate between them
        # (fewest children first, then the smaller id).
        graph = {
            0: (1, 2),
            1: (0, 3, 4, 5, 6),
            2: (0, 3, 4, 5, 6),
            3: (1, 2),
            4: (1, 2),
            5: (1, 2),
            6: (1, 2),
        }
        assert build_gathering_tree(graph, sink=0) == {1: 0, 2: 0, 3: 1, 4: 2, 5: 1, 6: 2}

    def test_hop_distances_skip_unreachable_nodes(self):
        graph = {0: (1,), 1: (0, 2), 2: (1,), 3: ()}
        assert hop_distances(graph, 0) == {0: 0, 1: 1, 2: 2}

    def test_deployment_graph_and_tree_are_plain_dicts(self):
        deployment = chain_deployment(depth=3)
        assert deployment.graph == {0: (1,), 1: (0, 2), 2: (1, 3), 3: (2,)}
        assert deployment.tree == {1: 0, 2: 1, 3: 2}
        assert deployment.children_of(1) == [2]
        assert deployment.children_of(3) == []

    def test_neighbours_of_returns_a_fresh_ascending_list(self):
        deployment = ring_deployment(depth=2, density=4, seed=0)
        for node in deployment.node_ids:
            neighbours = deployment.neighbours_of(node)
            assert isinstance(neighbours, list)
            assert neighbours == sorted(neighbours)
            neighbours.append(-1)  # the caller's copy, not the graph
            assert -1 not in deployment.neighbours_of(node)

    def test_ring_deployment_invalid_spacing_rejected(self):
        with pytest.raises(ConfigurationError):
            ring_deployment(depth=3, density=4, spacing_factor=0.95)


def dense_unit_disk_graph(positions, radius):
    """The adjacency from every pair's offset, (i, j) as coords[j] - coords[i]."""
    ids = sorted(positions)
    coords = np.array([positions[node] for node in ids])
    dx = coords[None, :, 0] - coords[:, None, 0]
    dy = coords[None, :, 1] - coords[:, None, 1]
    linked = np.triu(np.hypot(dx, dy) <= radius, k=1)
    linked |= linked.T
    return {
        node: tuple(ids[j] for j in np.flatnonzero(row).tolist())
        for node, row in zip(ids, linked)
    }


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
        expected = dense_unit_disk_graph(deployment.positions, deployment.radius)
        assert _unit_disk_graph(deployment.positions, deployment.radius) == expected
        assert deployment.graph == expected


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
