"""Random node deployments.

The discrete-event simulator and the scalability analysis need concrete
topologies.  This module generates uniform-density deployments on a disk
around the sink whose *expected* ring structure matches a given
:class:`~repro.network.topology.RingTopology`, so that analytical predictions
and simulation results can be compared apples-to-apples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.network.topology import (
    RingTopology,
    UnitDiskDeployment,
    build_gathering_tree,
    hop_distances,
)
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


@dataclass(frozen=True)
class DeploymentConfig:
    """Parameters of a random uniform deployment.

    Attributes:
        depth: Target number of rings ``D``.
        density: Target unit-disk neighbourhood size ``C``.
        radius: Communication radius (metres); purely a scale factor.
        seed: Seed for the pseudo-random generator, for reproducibility.
        max_attempts: How many times to re-sample if the generated graph is
            disconnected (sparse deployments occasionally are).
    """

    depth: int = 5
    density: int = 8
    radius: float = 50.0
    seed: int = 1
    max_attempts: int = 25

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {self.depth!r}")
        if self.density < 1:
            raise ConfigurationError(f"density must be >= 1, got {self.density!r}")
        require_positive("radius", self.radius)
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")

    @property
    def target_node_count(self) -> int:
        """Expected number of sensor nodes, ``C * D^2``."""
        return int(self.density * self.depth**2)

    @property
    def field_radius(self) -> float:
        """Radius of the deployment disk, ``D`` communication radii."""
        return self.depth * self.radius


def _sample_positions(config: DeploymentConfig, rng: np.random.Generator) -> Dict[int, Tuple[float, float]]:
    """Sample sensor positions uniformly on the deployment disk."""
    count = config.target_node_count
    # Uniform sampling on a disk: radius ~ sqrt(U) * R, angle ~ U * 2*pi.
    radii = config.field_radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
    positions: Dict[int, Tuple[float, float]] = {0: (0.0, 0.0)}
    for index in range(count):
        positions[index + 1] = (
            float(radii[index] * math.cos(angles[index])),
            float(radii[index] * math.sin(angles[index])),
        )
    return positions


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


def generate_deployment(
    config: Optional[DeploymentConfig] = None,
    *,
    depth: Optional[int] = None,
    density: Optional[int] = None,
    seed: Optional[int] = None,
) -> UnitDiskDeployment:
    """Generate a random connected deployment matching the ring model.

    Either pass a full :class:`DeploymentConfig` or override ``depth``,
    ``density`` and ``seed`` individually.

    The generator re-samples (with incremented seeds) until the unit-disk
    graph is connected, because the analytical model assumes every node has a
    path to the sink.

    Raises:
        ConfigurationError: if the deployment would exceed
            :data:`MAX_DEPLOYMENT_NODES`, or no connected deployment is found
            within ``config.max_attempts`` attempts.
    """
    if config is None:
        config = DeploymentConfig()
    overrides = {}
    if depth is not None:
        overrides["depth"] = depth
    if density is not None:
        overrides["density"] = density
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        config = DeploymentConfig(
            depth=overrides.get("depth", config.depth),
            density=overrides.get("density", config.density),
            radius=config.radius,
            seed=overrides.get("seed", config.seed),
            max_attempts=config.max_attempts,
        )
    check_node_count(config.target_node_count)

    last_error: Optional[Exception] = None
    for attempt in range(config.max_attempts):
        rng = np.random.default_rng(config.seed + attempt)
        positions = _sample_positions(config, rng)
        graph = _unit_disk_graph(positions, config.radius)
        deployment = _connected_deployment(positions, config.radius, graph)
        if deployment is None:
            last_error = ConfigurationError("sampled unit-disk graph is disconnected")
            continue
        return deployment
    raise ConfigurationError(
        f"could not generate a connected deployment after {config.max_attempts} "
        f"attempts (depth={config.depth}, density={config.density}); "
        f"last error: {last_error}"
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


def chain_deployment(depth: int, spacing: Optional[float] = None, radius: float = 50.0) -> UnitDiskDeployment:
    """Deterministic single-chain deployment: sink — n1 — n2 — … — nD.

    Useful in unit tests and for validating the per-hop latency models: the
    topology has exactly one node per ring and no contention.
    """
    if depth < 1:
        raise ConfigurationError(f"depth must be >= 1, got {depth!r}")
    require_positive("radius", radius)
    if spacing is None:
        spacing = 0.9 * radius
    if spacing > radius:
        raise ConfigurationError("spacing larger than radius would disconnect the chain")
    positions: Dict[int, Tuple[float, float]] = {
        node: (node * spacing, 0.0) for node in range(depth + 1)
    }
    graph = _unit_disk_graph(positions, radius)
    tree = build_gathering_tree(graph, sink=0)
    return UnitDiskDeployment(positions=positions, radius=radius, graph=graph, tree=tree)
