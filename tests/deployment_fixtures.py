"""Random and chain deployments: fixtures of the topology and simulator tests.

Production simulations run on :func:`repro.network.deployment.ring_deployment`,
which places every node on its analytical ring.  The tests also need
irregular and minimal topologies, built on the same unit-disk graph, BFS
tree and node limit (called through the module, so a test that wraps
``_unit_disk_graph`` there sees every graph these build):

* :func:`generate_deployment` — a random uniform-density deployment on a
  disk around the sink, re-sampled until it is connected; the oracle tests
  hold its graphs and trees to networkx;
* :func:`chain_deployment` — sink — n1 — … — nD, one node per ring and no
  contention, for the per-hop checks of the MAC behaviours.

pytest puts ``tests/`` on ``sys.path`` (``tests/conftest.py``), so this
module is imported as ``deployment_fixtures``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.network import deployment as network_deployment
from repro.network.topology import UnitDiskDeployment, build_gathering_tree
from repro.units import require_positive


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
            :data:`repro.network.deployment.MAX_DEPLOYMENT_NODES`, or no
            connected deployment is found within ``config.max_attempts``
            attempts.
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
    network_deployment.check_node_count(config.target_node_count)

    last_error: Optional[Exception] = None
    for attempt in range(config.max_attempts):
        rng = np.random.default_rng(config.seed + attempt)
        positions = _sample_positions(config, rng)
        graph = network_deployment._unit_disk_graph(positions, config.radius)
        deployment = network_deployment._connected_deployment(positions, config.radius, graph)
        if deployment is None:
            last_error = ConfigurationError("sampled unit-disk graph is disconnected")
            continue
        return deployment
    raise ConfigurationError(
        f"could not generate a connected deployment after {config.max_attempts} "
        f"attempts (depth={config.depth}, density={config.density}); "
        f"last error: {last_error}"
    )


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
    graph = network_deployment._unit_disk_graph(positions, radius)
    tree = build_gathering_tree(graph, sink=0)
    return UnitDiskDeployment(positions=positions, radius=radius, graph=graph, tree=tree)
