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
* :class:`UnitDiskDeployment` — a concrete deployment as index arrays: node
  positions, the unit-disk graph in CSR form, each node's ring and its
  gathering-tree parent.  Node ``i`` is row ``i`` of every array and row
  ``0`` is the sink, so the discrete-event simulator reads the arrays
  directly.  :mod:`repro.network.deployment` builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping

import numpy as np

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


@dataclass(frozen=True, eq=False)
class UnitDiskDeployment:
    """A concrete node deployment with unit-disk connectivity, as index arrays.

    Node ``i`` is row ``i`` of every array; row ``0`` is the sink.  The
    arrays are checked, copied read-only and compared by value, so two
    deployments of the same nodes are equal.

    Attributes:
        positions: ``(n, 2)`` float coordinates.
        radius: Communication (unit-disk) radius.
        indptr: ``(n + 1,)`` CSR row pointers of the unit-disk graph.
        indices: CSR column indices: node ``i``'s neighbours are
            ``indices[indptr[i]:indptr[i + 1]]``, ascending.
        ring: ``(n,)`` hops to the sink along the tree (``0`` at the sink);
            the builders of :mod:`repro.network.deployment` make it the
            shortest hop distance.
        parent: ``(n,)`` gathering-tree parent, a neighbour one ring inward
            (``-1`` at the sink).

    Raises:
        ConfigurationError: if the arrays disagree on the node count, row
            ``0`` is not the sink, or a node's ring or parent breaks the
            rules above (naming the node).
    """

    positions: np.ndarray
    radius: float
    indptr: np.ndarray
    indices: np.ndarray
    ring: np.ndarray
    parent: np.ndarray

    def __post_init__(self) -> None:
        require_positive("radius", self.radius)
        for name, dtype in _ARRAYS:
            array = np.array(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        count = self.ring.size
        shapes = {
            "ring": (count,),
            "positions": (count, 2),
            "indptr": (count + 1,),
            "parent": (count,),
        }
        for name, expected in shapes.items():
            shape = getattr(self, name).shape
            if shape != expected:
                raise ConfigurationError(
                    f"deployment {name} has shape {shape}, expected {expected} "
                    f"for {count} node(s)"
                )
        indptr, indices, ring, parent = self.indptr, self.indices, self.ring, self.parent
        if (
            indptr[0] != 0
            or indices.shape != (indptr[-1],)
            or np.any(np.diff(indptr) < 0)
            or np.any((indices < 0) | (indices >= count))
        ):
            raise ConfigurationError(
                f"deployment indptr and indices are not a graph of {count} node(s)"
            )
        if count == 0 or ring[0] != 0 or parent[0] != -1:
            raise ConfigurationError(
                "deployment row 0 must be the sink, with ring 0 and parent -1"
            )
        # Every other node's parent is a neighbour one ring inward, so each
        # node's ring counts the hops of its path up the tree.
        rows = np.repeat(np.arange(count), np.diff(indptr))
        linked = np.zeros(count, dtype=bool)
        linked[rows[indices == parent[rows]]] = True
        inward = ring[np.clip(parent, 0, count - 1)] == ring - 1
        orphans = np.flatnonzero(~(linked & inward)[1:]) + 1
        if len(orphans):
            node = int(orphans[0])
            raise ConfigurationError(
                f"deployment node {node} (ring {ring[node]}) has no parent one ring "
                f"inward: its parent is {parent[node]}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnitDiskDeployment):
            return NotImplemented
        return self.radius == other.radius and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name, _ in _ARRAYS
        )

    @property
    def depth(self) -> int:
        """Maximum hop distance from any node to the sink."""
        return int(self.ring.max())

    def neighbours_of(self, node: int) -> List[int]:
        """Return the unit-disk neighbours of ``node``, ascending."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]].tolist()


#: The array fields of :class:`UnitDiskDeployment` and their dtypes.
_ARRAYS = (
    ("positions", np.float64),
    ("indptr", np.int64),
    ("indices", np.int64),
    ("ring", np.int64),
    ("parent", np.int64),
)
