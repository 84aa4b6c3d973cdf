"""Differential test: the CSR unit-disk graph, rings and gathering tree vs networkx.

The package builds deployments as index arrays with NumPy and plain lists.
networkx is not one of its dependencies; where it is installed it serves as
an independent oracle.  Every unit-disk graph the deployment builders make —
including the disconnected attempts ``generate_deployment`` discards and the
graphs of calls that raise — is rebuilt pair by pair in networkx, and the
adjacency, hop distances, connectivity verdict and parents must agree.
"""

from __future__ import annotations

import numpy as np
import pytest

from deployment_fixtures import DeploymentConfig, chain_deployment, generate_deployment
from repro.exceptions import ConfigurationError
from repro.network import deployment as deployment_module
from repro.network.deployment import _rings_and_tree, ring_deployment

nx = pytest.importorskip("networkx")


def _oracle_graph(coords, radius):
    """The unit-disk graph, one networkx edge per pair within ``radius``."""
    graph = nx.Graph()
    graph.add_nodes_from(range(len(coords)))
    for i in range(len(coords)):
        deltas = coords[i + 1 :] - coords[i]
        distances = np.hypot(deltas[:, 0], deltas[:, 1])
        for offset in np.flatnonzero(distances <= radius):
            graph.add_edge(i, i + 1 + int(offset))
    return graph


def _rows(indptr, indices):
    """One neighbour list per node of a CSR graph."""
    return [indices[start:end].tolist() for start, end in zip(indptr, indptr[1:])]


def _oracle_rings(graph):
    """Hop distance to node 0 per node, ``-1`` where networkx finds no path."""
    distances = nx.shortest_path_length(graph, source=0)
    return [distances.get(node, -1) for node in range(len(graph))]


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
    """Every ``(coords, radius, (indptr, indices))`` the deployment builders make."""
    calls = []
    original = deployment_module._unit_disk_graph

    def recording(coords, radius):
        graph = original(coords, radius)
        calls.append((coords.copy(), radius, graph))
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

    for coords, radius, (indptr, indices) in built_graphs:
        oracle = _oracle_graph(coords, radius)
        assert _rows(indptr, indices) == [sorted(oracle[node]) for node in oracle]
        ring, parent = _rings_and_tree(indptr, indices)
        assert ring == _oracle_rings(oracle)
        assert (parent is not None) == nx.is_connected(oracle)

    if deployment is None:
        return
    coords, radius, (indptr, indices) = built_graphs[-1]
    oracle = _oracle_graph(coords, radius)
    tree = _oracle_tree(oracle)
    assert np.array_equal(deployment.positions, coords)
    assert _rows(deployment.indptr, deployment.indices) == [
        sorted(oracle[node]) for node in oracle
    ]
    assert deployment.ring.tolist() == _oracle_rings(oracle)
    assert deployment.parent.tolist() == [
        next(iter(tree.successors(node)), -1) for node in tree
    ]
    for node in oracle:
        assert deployment.neighbours_of(node) == sorted(oracle.neighbors(node))


def test_generate_deployment_discards_the_attempts_the_oracle_finds_disconnected(
    built_graphs,
):
    config = DeploymentConfig(depth=4, density=6, seed=3)
    generate_deployment(config)
    verdicts = [
        nx.is_connected(_oracle_graph(coords, radius)) for coords, radius, _ in built_graphs
    ]
    # Every attempt before the last was disconnected; the last is the one kept.
    assert len(verdicts) > 1
    assert verdicts == [False] * (len(verdicts) - 1) + [True]


def test_disconnected_csr_graph_matches_the_oracle():
    rows = [(1,), (0, 2), (1,), (4,), (3,)]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([node for row in rows for node in row])
    oracle = nx.Graph()
    oracle.add_nodes_from(range(len(rows)))
    oracle.add_edges_from((node, other) for node, row in enumerate(rows) for other in row)
    ring, parent = _rings_and_tree(indptr, indices)
    assert ring == _oracle_rings(oracle) == [0, 1, 2, -1, -1]
    assert parent is None
