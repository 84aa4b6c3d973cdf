"""Concrete node deployments for the simulator.

The packet-level simulator needs a concrete topology: node positions, the
unit-disk graph and the gathering tree.  :func:`ring_deployment` places
every node on the ring of a :class:`~repro.network.topology.RingTopology`
that the analytical models assume, so analytical predictions and
simulation results can be compared apples-to-apples.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.network.topology import UnitDiskDeployment, build_gathering_tree, hop_distances
from repro.units import require_positive

#: Most sensor nodes a generated deployment may hold.  Building one holds an
#: n×n boolean adjacency and, one band of rows at a time, the pair offsets
#: and distances of :func:`_unit_disk_graph`: a 79 MB peak for 3,921 nodes
#: (406 MB while every pair was measured twice); every scenario preset has
#: at most 400 nodes.
MAX_DEPLOYMENT_NODES = 4000


def check_node_count(nodes: int) -> None:
    """Refuse a deployment of more than :data:`MAX_DEPLOYMENT_NODES` sensor nodes.

    Raises:
        ConfigurationError: naming the node count and the limit.
    """
    if nodes > MAX_DEPLOYMENT_NODES:
        raise ConfigurationError(
            f"{nodes} sensor nodes exceed the deployment limit of "
            f"{MAX_DEPLOYMENT_NODES}"
        )


def _unit_disk_graph(
    positions: Dict[int, Tuple[float, float]], radius: float
) -> Dict[int, Tuple[int, ...]]:
    """Unit-disk adjacency of the given positions, neighbours ascending."""
    ids = sorted(positions)
    coords = np.array([positions[node] for node in ids])
    # Pair (i, j), i < j, is measured once, as coords[j] - coords[i]: each
    # band of rows meets only the columns from its first row on, so the
    # lower triangle is mostly never computed.
    size = len(ids)
    linked = np.zeros((size, size), dtype=bool)
    band = max(64, -(-size // 16))
    for start in range(0, size, band):
        rows = slice(start, start + band)
        dx = coords[None, start:, 0] - coords[rows, None, 0]
        dy = coords[None, start:, 1] - coords[rows, None, 1]
        linked[rows, start:] = np.triu(np.hypot(dx, dy) <= radius, k=1)
    linked |= linked.T
    # One row-major nonzero lists every row's neighbours in ascending
    # order; the row sums split it into rows.
    _, columns = np.nonzero(linked)
    neighbours = [ids[j] for j in columns.tolist()]
    ends = np.cumsum(linked.sum(axis=1)).tolist()
    return {
        node: tuple(neighbours[start:end])
        for node, start, end in zip(ids, [0] + ends, ends)
    }


def _connected_deployment(
    positions: Dict[int, Tuple[float, float]], radius: float, graph: Dict[int, Tuple[int, ...]]
) -> Optional[UnitDiskDeployment]:
    """The deployment on ``graph``, or ``None`` if the sink does not reach every node.

    One breadth-first search from the sink gives the connectivity verdict,
    the gathering tree's rings and the deployment's ``ring_of``.
    """
    ring_of = hop_distances(graph, 0)
    if len(ring_of) != len(graph):
        return None
    tree = build_gathering_tree(graph, sink=0, distances=ring_of)
    return UnitDiskDeployment(
        positions=positions, radius=radius, graph=graph, tree=tree, ring_of=ring_of
    )


def ring_deployment(
    depth: int,
    density: int,
    radius: float = 50.0,
    spacing_factor: float = 0.75,
    seed: int = 0,
    angular_jitter: float = 0.05,
) -> UnitDiskDeployment:
    """Deterministic deployment that instantiates the analytical ring model.

    Ring ``d`` (d = 1..depth) holds exactly ``density * (2d - 1)`` nodes,
    evenly spread on a circle of radius ``d * spacing_factor * radius`` with a
    small angular jitter.  By construction every node's hop distance to the
    sink equals its ring index, ring populations match the analytical
    topology, and the gathering tree splits relayed traffic evenly — which is
    exactly what the closed-form models assume, making this the default
    substrate for model-vs-simulation validation.

    Args:
        depth: Number of rings ``D``.
        density: Unit-disk neighbourhood size ``C``.
        radius: Communication radius.
        spacing_factor: Ring spacing as a fraction of the radius (must stay
            below ~0.8 so that every node finds a parent one ring inward).
        seed: Seed for the angular jitter.
        angular_jitter: Jitter amplitude as a fraction of the angular spacing.

    Raises:
        ConfigurationError: on invalid arguments, a disconnected result, or
            more than :data:`MAX_DEPLOYMENT_NODES` nodes (``density · depth²``),
            refused before any position is sampled.
    """
    if depth < 1 or density < 1:
        raise ConfigurationError("depth and density must be >= 1")
    require_positive("radius", radius)
    if not (0.1 <= spacing_factor <= 0.8):
        raise ConfigurationError(
            f"spacing_factor must lie in [0.1, 0.8], got {spacing_factor!r}"
        )
    check_node_count(density * depth**2)
    rng = np.random.default_rng(seed)
    positions: Dict[int, Tuple[float, float]] = {0: (0.0, 0.0)}
    node_id = 1
    for ring in range(1, depth + 1):
        ring_radius = ring * spacing_factor * radius
        count = density * (2 * ring - 1)
        base_angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        jitter = rng.uniform(-angular_jitter, angular_jitter, size=count) * (
            2.0 * math.pi / count
        )
        for angle in base_angles + jitter:
            positions[node_id] = (
                float(ring_radius * math.cos(angle)),
                float(ring_radius * math.sin(angle)),
            )
            node_id += 1
    deployment = _connected_deployment(positions, radius, _unit_disk_graph(positions, radius))
    if deployment is None:
        raise ConfigurationError(
            "ring deployment is disconnected; lower spacing_factor or raise density"
        )
    if deployment.depth != depth:
        raise ConfigurationError(
            f"ring deployment produced depth {deployment.depth}, expected {depth}; "
            "lower spacing_factor"
        )
    return deployment
