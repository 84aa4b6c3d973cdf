"""Topology models.

The paper adopts the ring abstraction of Langendoen & Meier: nodes are
deployed with uniform density on the plane, communicate over unit-disk links
(each unit disk contains ``C + 1`` nodes) and are layered into rings
``d = 1 .. D`` by their minimum hop distance to a single static sink at
``d = 0``.  A shortest-path spanning tree carries all traffic toward the
sink.

Two levels of fidelity are provided:

* :class:`RingTopology` — the purely analytical abstraction (only ``D`` and
  ``C`` matter).  This is what the closed-form energy/latency models consume.
* :class:`UnitDiskDeployment` — a concrete random deployment with node
  positions, a unit-disk connectivity graph (a plain adjacency dict) and a
  BFS gathering tree (a ``{child: parent}`` dict).  This is what the
  discrete-event simulator consumes, and it can be *summarized back* into a
  :class:`RingTopology` so the analytical and simulated worlds stay
  comparable.

Graphs are plain mappings from a node id to its neighbours, so the
standard library (a :class:`collections.deque` BFS) covers every graph
operation the package needs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.units import require_positive


@dataclass(frozen=True)
class RingTopology:
    """Analytical ring topology.

    Attributes:
        depth: Number of rings ``D`` (the maximum hop distance to the sink).
        density: Unit-disk neighbourhood size ``C``: a unit disk contains
            ``C + 1`` nodes, i.e. every node has (on average) ``C``
            neighbours.
    """

    depth: int
    density: int

    def __post_init__(self) -> None:
        if not isinstance(self.depth, int) or self.depth < 1:
            raise ConfigurationError(
                f"RingTopology.depth must be an integer >= 1, got {self.depth!r}"
            )
        if not isinstance(self.density, int) or self.density < 1:
            raise ConfigurationError(
                f"RingTopology.density must be an integer >= 1, got {self.density!r}"
            )

    # ------------------------------------------------------------------ #
    # Ring population
    # ------------------------------------------------------------------ #

    def rings(self) -> range:
        """Iterate over ring indices ``1 .. D`` (the sink ring 0 is excluded)."""
        return range(1, self.depth + 1)

    def nodes_in_ring(self, ring: int) -> float:
        """Expected number of nodes in ring ``ring``.

        With uniform density and unit-disk radius ``r``, ring ``d`` is the
        annulus between radii ``(d-1)r`` and ``dr``; its area is
        ``pi r^2 (2d - 1)``, hence it contains ``C (2d - 1)`` nodes when the
        unit disk (area ``pi r^2``) contains ``C`` nodes besides the centre.
        """
        self._check_ring(ring)
        return float(self.density * (2 * ring - 1))

    def total_nodes(self) -> float:
        """Expected total number of nodes in the network (excluding the sink)."""
        return float(self.density * self.depth**2)

    def descendants_per_node(self, ring: int) -> float:
        """Expected number of descendants routed through a node in ring ``ring``.

        Nodes beyond ring ``d`` split their traffic evenly over the
        ``C (2d - 1)`` nodes of ring ``d``:
        ``(D^2 - d^2) / (2d - 1)`` descendants per node.
        """
        self._check_ring(ring)
        return (self.depth**2 - ring**2) / float(2 * ring - 1)

    def children_per_node(self, ring: int) -> float:
        """Expected number of direct children (input links) of a ring-``d`` node.

        Ring ``d + 1`` contains ``C (2d + 1)`` nodes which attach evenly to
        the ``C (2d - 1)`` nodes of ring ``d``; the innermost rings therefore
        fan in the most.  The outermost ring has no children.
        """
        self._check_ring(ring)
        if ring == self.depth:
            return 0.0
        return (2 * ring + 1) / float(2 * ring - 1)

    def _check_ring(self, ring: int) -> None:
        if not isinstance(ring, int) or not (1 <= ring <= self.depth):
            raise ConfigurationError(
                f"ring index must be an integer in [1, {self.depth}], got {ring!r}"
            )

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #

    @property
    def bottleneck_ring(self) -> int:
        """Ring that carries the most traffic per node (always ring 1)."""
        return 1

    @property
    def delay_critical_ring(self) -> int:
        """Ring whose packets travel the most hops (always ring ``D``)."""
        return self.depth

    def describe(self) -> Mapping[str, float]:
        """Summary used in reports and experiment headers."""
        return {
            "depth": float(self.depth),
            "density": float(self.density),
            "total_nodes": self.total_nodes(),
            "ring1_relay_load": self.descendants_per_node(1) + 1.0,
        }


# ---------------------------------------------------------------------- #
# Concrete deployments
# ---------------------------------------------------------------------- #


@dataclass
class UnitDiskDeployment:
    """A concrete node deployment with unit-disk connectivity.

    Attributes:
        positions: Mapping from node id to ``(x, y)`` coordinates.  Node ``0``
            is always the sink and sits at the origin.
        radius: Communication (unit-disk) radius.
        graph: Undirected connectivity graph as an adjacency dict: every
            node id maps to the tuple of its neighbours (stored sorted).
        tree: Gathering tree as a ``{child: parent}`` dict, one entry per
            non-sink node (edges point toward the sink).
        ring_of: Mapping from node id to its ring index (hop distance to the
            sink); the sink maps to ``0``.
    """

    positions: Dict[int, Tuple[float, float]]
    radius: float
    graph: Dict[int, Tuple[int, ...]] = field(repr=False)
    tree: Dict[int, int] = field(repr=False)
    ring_of: Dict[int, int] = field(default_factory=dict)

    SINK: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        require_positive("radius", self.radius)
        if self.SINK not in self.positions:
            raise ConfigurationError("deployment must contain the sink (node 0)")
        self.graph = {node: tuple(sorted(nodes)) for node, nodes in self.graph.items()}
        if not self.ring_of:
            self.ring_of = hop_distances(self.graph, self.SINK)
        children: Dict[int, List[int]] = {}
        for child, parent in self.tree.items():
            children.setdefault(parent, []).append(child)
        self._children = {parent: tuple(sorted(nodes)) for parent, nodes in children.items()}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def node_ids(self) -> List[int]:
        """All node ids, sink first, then sorted ascending."""
        others = sorted(n for n in self.positions if n != self.SINK)
        return [self.SINK] + others

    @property
    def sensor_ids(self) -> List[int]:
        """All non-sink node ids, sorted ascending."""
        return [n for n in self.node_ids if n != self.SINK]

    @property
    def depth(self) -> int:
        """Maximum hop distance from any connected node to the sink."""
        reachable = [ring for node, ring in self.ring_of.items() if node != self.SINK]
        if not reachable:
            raise ConfigurationError("deployment has no sensor connected to the sink")
        return max(reachable)

    def parent_of(self, node: int) -> Optional[int]:
        """Return the tree parent of ``node`` (``None`` for the sink)."""
        if node == self.SINK:
            return None
        parent = self.tree.get(node)
        if parent is None:
            raise ConfigurationError(f"node {node} is not connected to the sink")
        return parent

    def children_of(self, node: int) -> List[int]:
        """Return the tree children of ``node``, ascending (may be empty)."""
        return list(self._children.get(node, ()))

    def neighbours_of(self, node: int) -> List[int]:
        """Return the unit-disk neighbours of ``node``, ascending."""
        return list(self.graph[node])

    def path_to_sink(self, node: int) -> List[int]:
        """Return the tree path from ``node`` to the sink, inclusive."""
        path = [node]
        current = node
        while current != self.SINK:
            parent = self.parent_of(current)
            if parent is None:
                break
            path.append(parent)
            current = parent
        return path

    def nodes_in_ring(self, ring: int) -> List[int]:
        """Return the node ids whose hop distance to the sink equals ``ring``."""
        return sorted(n for n, r in self.ring_of.items() if r == ring and n != self.SINK)

    def subtree_size(self, node: int) -> int:
        """Number of nodes (including ``node``) whose traffic crosses ``node``."""
        size = 1
        for child in self.children_of(node):
            size += self.subtree_size(child)
        return size

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #

    def average_degree(self) -> float:
        """Average unit-disk degree of the sensor nodes."""
        sensors = self.sensor_ids
        if not sensors:
            return 0.0
        return sum(len(self.graph[n]) for n in sensors) / len(sensors)

    def to_ring_topology(self) -> RingTopology:
        """Summarize this deployment into the analytical ring abstraction.

        ``depth`` is the observed maximum hop count; ``density`` is the
        rounded average degree (minimum 1).  This is the bridge used when
        validating the analytical models against the simulator.
        """
        density = max(1, round(self.average_degree()))
        return RingTopology(depth=self.depth, density=density)


# ---------------------------------------------------------------------- #
# Tree construction
# ---------------------------------------------------------------------- #


def hop_distances(graph: Mapping[int, Sequence[int]], source: int) -> Dict[int, int]:
    """Hop distance from ``source`` to every node it reaches, in BFS order.

    ``graph`` maps each node to its neighbours; nodes ``source`` cannot
    reach are absent from the result.
    """
    distances = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        hops = distances[node] + 1
        for neighbour in graph[node]:
            if neighbour not in distances:
                distances[neighbour] = hops
                frontier.append(neighbour)
    return distances


def build_gathering_tree(
    graph: Mapping[int, Sequence[int]],
    sink: int = 0,
    distances: Optional[Mapping[int, int]] = None,
) -> Dict[int, int]:
    """Build a shortest-path (BFS) gathering tree rooted at the sink.

    ``graph`` maps each node to its neighbours.  Every node picks a parent
    among its neighbours that are strictly closer to the sink.  To mirror
    the analytical assumption that relayed traffic is split evenly over the
    nodes of a ring, the parent chosen is the candidate that currently has
    the fewest children (ties broken by the smaller id).  The returned
    ``{child: parent}`` dict has one entry per non-sink node.  A caller
    that already holds ``hop_distances(graph, sink)`` passes it as
    ``distances`` and the graph is not searched again.

    Raises:
        ConfigurationError: if some node has no path to the sink.
    """
    if sink not in graph:
        raise ConfigurationError(f"sink node {sink!r} is not in the graph")
    if distances is None:
        distances = hop_distances(graph, sink)
    unreachable = set(graph) - set(distances)
    if unreachable:
        raise ConfigurationError(
            f"{len(unreachable)} node(s) have no path to the sink: "
            f"{sorted(unreachable)[:5]}..."
        )
    tree: Dict[int, int] = {}
    child_count: Dict[int, int] = {node: 0 for node in graph}
    # Attach nodes ring by ring so parents' loads are known before deeper
    # rings choose; within a ring process in id order for determinism.
    for node in sorted(graph, key=lambda n: (distances[n], n)):
        if node == sink:
            continue
        closer = [
            neighbour
            for neighbour in graph[node]
            if distances[neighbour] == distances[node] - 1
        ]
        if not closer:
            raise ConfigurationError(
                f"node {node} at distance {distances[node]} has no parent candidate"
            )
        parent = min(closer, key=lambda candidate: (child_count[candidate], candidate))
        child_count[parent] += 1
        tree[node] = parent
    return tree


def ring_histogram(deployment: UnitDiskDeployment) -> Dict[int, int]:
    """Return ``{ring: node count}`` for a deployment (sink excluded)."""
    histogram: Dict[int, int] = {}
    for node, ring in deployment.ring_of.items():
        if node == deployment.SINK:
            continue
        histogram[ring] = histogram.get(ring, 0) + 1
    return dict(sorted(histogram.items()))
