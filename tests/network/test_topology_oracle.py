"""Differential test: the stdlib unit-disk graph and gathering tree vs networkx.

The package builds deployments on plain dicts.  networkx is not one of its
dependencies; where it is installed it serves as an independent oracle.
Every unit-disk graph the deployment builders make — including the
disconnected attempts ``generate_deployment`` discards and the graphs of
calls that raise — is rebuilt pair by pair in networkx, and the adjacency,
hop distances, connectivity verdict, parents and children must agree.
"""

from __future__ import annotations

import numpy as np
import pytest

from deployment_fixtures import DeploymentConfig, chain_deployment, generate_deployment
from repro.exceptions import ConfigurationError
from repro.network import deployment as deployment_module
from repro.network.deployment import ring_deployment
from repro.network.topology import build_gathering_tree, hop_distances

nx = pytest.importorskip("networkx")


def _oracle_graph(positions, radius):
    """The unit-disk graph, one networkx edge per pair within ``radius``."""
    graph = nx.Graph()
    graph.add_nodes_from(positions)
    ids = sorted(positions)
    coords = np.array([positions[node] for node in ids])
    for i, node in enumerate(ids):
        deltas = coords[i + 1 :] - coords[i]
        distances = np.hypot(deltas[:, 0], deltas[:, 1])
        for offset in np.flatnonzero(distances <= radius):
            graph.add_edge(node, ids[i + 1 + int(offset)])
    return graph


def _oracle_tree(graph, sink=0):
    """The gathering tree's documented rule on networkx primitives.

    Ring by ring, in id order, each node's parent is the closer neighbour
    with the fewest children so far, then the smaller id.
    """
    distances = nx.shortest_path_length(graph, source=sink)
    tree = nx.DiGraph()
    tree.add_nodes_from(graph.nodes)
    child_count = {node: 0 for node in graph.nodes}
    for node in sorted(graph.nodes, key=lambda n: (distances[n], n)):
        if node == sink:
            continue
        closer = [n for n in graph.neighbors(node) if distances[n] == distances[node] - 1]
        parent = min(closer, key=lambda candidate: (child_count[candidate], candidate))
        child_count[parent] += 1
        tree.add_edge(node, parent)
    return tree


@pytest.fixture
def built_graphs(monkeypatch):
    """Every ``(positions, radius, graph)`` the deployment builders make."""
    calls = []
    original = deployment_module._unit_disk_graph

    def recording(positions, radius):
        graph = original(positions, radius)
        calls.append((dict(positions), radius, graph))
        return graph

    monkeypatch.setattr(deployment_module, "_unit_disk_graph", recording)
    return calls


#: ``(id, builder, raises)``: deployments that succeed, and ones that fail
#: because their graph is disconnected or not as deep as asked.
CASES = [
    ("ring-3x4", lambda: ring_deployment(depth=3, density=4, seed=0), None),
    ("ring-3x6", lambda: ring_deployment(depth=3, density=6, seed=1), None),
    ("ring-5x8", lambda: ring_deployment(depth=5, density=8, seed=7), None),
    ("ring-5x16", lambda: ring_deployment(depth=5, density=16, seed=2), None),
    ("ring-8x4", lambda: ring_deployment(depth=8, density=4, seed=0), None),
    ("ring-1x1", lambda: ring_deployment(depth=1, density=1, seed=0), None),
    ("ring-tight", lambda: ring_deployment(depth=4, density=3, spacing_factor=0.6), None),
    (
        "ring-too-shallow",
        lambda: ring_deployment(depth=4, density=3, spacing_factor=0.5),
        "produced depth 3",
    ),
    ("ring-disconnected", lambda: ring_deployment(depth=3, density=2, seed=1), "disconnected"),
    ("ring-too-deep", lambda: ring_deployment(depth=3, density=3, seed=0), "produced depth 5"),
    ("generate-3x8", lambda: generate_deployment(depth=3, density=8, seed=7), None),
    ("generate-5x8", lambda: generate_deployment(depth=5, density=8, seed=1), None),
    ("generate-4x6", lambda: generate_deployment(depth=4, density=6, seed=3), None),
    (
        "generate-never-connected",
        lambda: generate_deployment(
            DeploymentConfig(depth=3, density=4, seed=1, max_attempts=5)
        ),
        "could not generate a connected deployment",
    ),
    ("chain-1", lambda: chain_deployment(depth=1), None),
    ("chain-6", lambda: chain_deployment(depth=6), None),
    ("chain-at-radius", lambda: chain_deployment(depth=4, spacing=50.0), None),
]


@pytest.mark.parametrize("builder, raises", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_deployments_match_the_networkx_oracle(built_graphs, builder, raises):
    if raises is None:
        deployment = builder()
    else:
        with pytest.raises(ConfigurationError, match=raises):
            builder()
        deployment = None
    assert built_graphs, "the builder made no unit-disk graph"

    for positions, radius, graph in built_graphs:
        oracle = _oracle_graph(positions, radius)
        assert graph == {node: tuple(sorted(oracle[node])) for node in oracle}
        assert hop_distances(graph, 0) == nx.shortest_path_length(oracle, source=0)
        connected = nx.is_connected(oracle)
        assert (len(hop_distances(graph, 0)) == len(graph)) == connected
        if not connected:
            with pytest.raises(ConfigurationError, match="no path to the sink"):
                build_gathering_tree(graph, sink=0)

    if deployment is None:
        return
    positions, radius, graph = built_graphs[-1]
    oracle = _oracle_graph(positions, radius)
    tree = _oracle_tree(oracle)
    assert deployment.graph == graph
    assert deployment.ring_of == nx.shortest_path_length(oracle, source=0)
    for node in deployment.node_ids:
        assert deployment.neighbours_of(node) == sorted(oracle.neighbors(node))
        expected_parent = next(iter(tree.successors(node)), None)
        assert deployment.parent_of(node) == expected_parent
        assert deployment.children_of(node) == sorted(tree.predecessors(node))
    sensors = deployment.sensor_ids
    assert deployment.average_degree() == sum(oracle.degree(n) for n in sensors) / len(sensors)


def test_generate_deployment_discards_the_attempts_the_oracle_finds_disconnected(
    built_graphs,
):
    config = DeploymentConfig(depth=4, density=6, seed=3)
    generate_deployment(config)
    verdicts = [
        nx.is_connected(_oracle_graph(positions, radius))
        for positions, radius, _ in built_graphs
    ]
    # Every attempt before the last was disconnected; the last is the one kept.
    assert len(verdicts) > 1
    assert verdicts == [False] * (len(verdicts) - 1) + [True]


def test_disconnected_plain_dict_graph_matches_the_oracle():
    graph = {0: (1,), 1: (0, 2), 2: (1,), 3: (4,), 4: (3,)}
    oracle = nx.Graph()
    oracle.add_nodes_from(graph)
    oracle.add_edges_from((node, other) for node in graph for other in graph[node])
    assert hop_distances(graph, 0) == nx.shortest_path_length(oracle, source=0)
    with pytest.raises(ConfigurationError, match=r"2 node\(s\) have no path"):
        build_gathering_tree(graph, sink=0)
