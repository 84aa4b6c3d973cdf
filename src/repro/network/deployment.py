"""Concrete node deployments for the simulator.

The packet-level simulator needs a concrete topology: node positions, the
unit-disk graph and the gathering tree, all index arrays of a
:class:`~repro.network.topology.UnitDiskDeployment`.  :func:`ring_deployment`
places every node on the ring of a
:class:`~repro.network.topology.RingTopology` that the analytical models
assume, so analytical predictions and simulation results can be compared
apples-to-apples.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.network.topology import UnitDiskDeployment
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


def _unit_disk_graph(coords: np.ndarray, radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """The unit-disk graph of ``(n, 2)`` coordinates as CSR ``(indptr, indices)``.

    Row ``i`` lists node ``i``'s neighbours, ascending.
    """
    # Pair (i, j), i < j, is measured once, as coords[j] - coords[i]: each
    # band of rows meets only the columns from its first row on, so the
    # lower triangle is mostly never computed.
    size = len(coords)
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
    _, indices = np.nonzero(linked)
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(linked.sum(axis=1), out=indptr[1:])
    return indptr, indices


def _rings_and_tree(
    indptr: np.ndarray, indices: np.ndarray
) -> Tuple[List[int], Optional[List[int]]]:
    """Hop distances from the sink (row 0), and the gathering tree's parents.

    A breadth-first search gives each node's ring (``-1`` where the sink
    does not reach it).  When it reaches every node, the tree is built
    ring by ring in id order: each node's parent is the neighbour one ring
    inward with the fewest children so far, a tie going to the smaller id,
    so relayed traffic splits evenly over a ring as the analytical model
    assumes.  The parents are ``None`` when the graph is disconnected.
    """
    flat = indices.tolist()
    starts = indptr.tolist()
    neighbours = [flat[start:end] for start, end in zip(starts, starts[1:])]
    ring = [-1] * len(neighbours)
    ring[0] = 0
    order = [0]
    for node in order:
        hops = ring[node] + 1
        for neighbour in neighbours[node]:
            if ring[neighbour] < 0:
                ring[neighbour] = hops
                order.append(neighbour)
    if len(order) < len(ring):
        return ring, None
    parent = [-1] * len(ring)
    children = [0] * len(ring)
    for node in sorted(range(1, len(ring)), key=ring.__getitem__):
        inward = ring[node] - 1
        best = -1
        # Neighbours are ascending, so a strict `<` keeps the smaller id.
        for neighbour in neighbours[node]:
            if ring[neighbour] == inward and (
                best < 0 or children[neighbour] < children[best]
            ):
                best = neighbour
        children[best] += 1
        parent[node] = best
    return ring, parent


def _connected_deployment(coords: np.ndarray, radius: float) -> Optional[UnitDiskDeployment]:
    """The deployment of ``coords`` (row 0 the sink), or ``None`` if it is disconnected."""
    indptr, indices = _unit_disk_graph(coords, radius)
    ring, parent = _rings_and_tree(indptr, indices)
    if parent is None:
        return None
    return UnitDiskDeployment(
        positions=coords, radius=radius, indptr=indptr, indices=indices, ring=ring, parent=parent
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
    positions: List[Tuple[float, float]] = [(0.0, 0.0)]
    for ring in range(1, depth + 1):
        ring_radius = ring * spacing_factor * radius
        count = density * (2 * ring - 1)
        base_angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        jitter = rng.uniform(-angular_jitter, angular_jitter, size=count) * (
            2.0 * math.pi / count
        )
        # Per node with math.cos/math.sin: NumPy's vectorized trig may round
        # differently, and every position bit is pinned.
        for angle in (base_angles + jitter).tolist():
            positions.append(
                (ring_radius * math.cos(angle), ring_radius * math.sin(angle))
            )
    deployment = _connected_deployment(np.array(positions), radius)
    shape = f"ring deployment of depth {depth}, density {density}, seed {seed}"
    if deployment is None:
        raise ConfigurationError(f"{shape} is disconnected; raise the density")
    if deployment.depth != depth:
        # The default spacing keeps every ring out of reach of the ring two
        # inward, so only a smaller spacing_factor makes a shallower graph.
        advice = "raise the density" if deployment.depth > depth else "raise spacing_factor"
        raise ConfigurationError(f"{shape} produced depth {deployment.depth}; {advice}")
    return deployment
