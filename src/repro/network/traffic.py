"""Traffic model.

Periodic, unsaturated traffic: every sensor node samples the environment at
rate ``Fs`` (packets per second) and forwards its own packets plus those of
its descendants toward the sink over the gathering tree.  Following the ring
abstraction (see :class:`repro.network.topology.RingTopology`), the load seen
by a node depends only on its ring ``d``:

* output rate ``F_out(d) = Fs * (D^2 - (d-1)^2) / (2d - 1)`` — own traffic
  plus relayed traffic,
* input rate ``F_in(d) = F_out(d) - Fs`` — relayed traffic only,
* background rate ``F_B(d)`` — traffic transmitted within the node's radio
  range but not addressed to it (what the node can *overhear*),
* input links ``I(d)`` — expected number of tree children.

These are the quantities the paper refers to as "the same input, output,
background traffic and input links equations ... derived in [3]".

Beyond the paper's strictly periodic workload, the model supports *bursty*
arrivals through a ``burstiness`` factor ``beta >= 1``: samples are emitted
in bursts of ``beta`` back-to-back packets (every ``beta`` sampling periods),
so the *mean* rates above are unchanged while the *peak* rates the MAC must
provision channel capacity for are ``beta`` times higher.  Energy models keep
using the mean rates (the long-run energy only depends on how many packets
flow); capacity constraints use the peak rates.  ``beta = 1`` recovers the
paper's periodic workload exactly (bit-identically).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.exceptions import ConfigurationError
from repro.network.topology import RingTopology
from repro.units import require_positive


@dataclass(frozen=True)
class RingTraffic:
    """Per-node traffic rates (packets per second) for one ring.

    Attributes:
        ring: Ring index ``d``.
        generated: Own sampling rate ``Fs``.
        output: Mean transmit rate ``F_out(d)``.
        input: Mean receive rate ``F_in(d)`` (traffic from children).
        background: Overhearable rate ``F_B(d)`` from neighbours whose
            transmissions are not addressed to this node.
        input_links: Expected number of tree children ``I(d)``.
        peak_output: Peak transmit rate the MAC must provision capacity
            for; ``burstiness * output``.  Defaults to ``output`` (periodic
            traffic).
        peak_input: Peak receive rate; ``burstiness * input``.  Defaults to
            ``input``.
    """

    ring: int
    generated: float
    output: float
    input: float
    background: float
    input_links: float
    peak_output: Optional[float] = None
    peak_input: Optional[float] = None

    def __post_init__(self) -> None:
        if self.peak_output is None:
            object.__setattr__(self, "peak_output", self.output)
        if self.peak_input is None:
            object.__setattr__(self, "peak_input", self.input)
        for name in ("generated", "output", "input", "background", "input_links"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"RingTraffic.{name} must be >= 0, got {value!r}")
        if self.output + 1e-12 < self.input + self.generated:
            raise ConfigurationError(
                "flow conservation violated: output < input + generated "
                f"({self.output!r} < {self.input!r} + {self.generated!r})"
            )
        if self.peak_output + 1e-12 < self.output or self.peak_input + 1e-12 < self.input:
            raise ConfigurationError(
                "peak rates must not be below the mean rates: "
                f"peak_output={self.peak_output!r} < output={self.output!r} or "
                f"peak_input={self.peak_input!r} < input={self.input!r}"
            )


class TrafficModel:
    """Periodic (optionally bursty) traffic load over a ring topology.

    Args:
        topology: The analytical ring topology.
        sampling_rate: Application sampling rate ``Fs`` in packets per second
            per node (e.g. ``0.01`` for one reading every 100 s).
        burstiness: Burst factor ``beta >= 1``: samples are emitted in bursts
            of ``beta`` back-to-back packets, leaving the mean rates unchanged
            but multiplying the peak rates by ``beta``.  The default ``1.0``
            is the paper's strictly periodic workload.

    Raises:
        ConfigurationError: if the sampling rate is not strictly positive or
            the burstiness is below one.
    """

    def __init__(
        self,
        topology: RingTopology,
        sampling_rate: float,
        burstiness: float = 1.0,
    ) -> None:
        if not isinstance(topology, RingTopology):
            raise ConfigurationError(
                f"topology must be a RingTopology, got {type(topology).__name__}"
            )
        self._topology = topology
        try:
            self._sampling_rate = require_positive("sampling_rate", sampling_rate)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        if not isinstance(burstiness, (int, float)) or burstiness < 1.0:
            raise ConfigurationError(
                f"burstiness must be a number >= 1, got {burstiness!r}"
            )
        self._burstiness = float(burstiness)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def topology(self) -> RingTopology:
        """The ring topology this traffic model is defined over."""
        return self._topology

    @property
    def sampling_rate(self) -> float:
        """Application sampling rate ``Fs`` (packets per second per node)."""
        return self._sampling_rate

    @property
    def sampling_period(self) -> float:
        """Application sampling period ``1 / Fs`` in seconds."""
        return 1.0 / self._sampling_rate

    @property
    def burstiness(self) -> float:
        """Burst factor ``beta`` (``1.0`` for strictly periodic traffic)."""
        return self._burstiness

    # ------------------------------------------------------------------ #
    # Per-ring rates
    # ------------------------------------------------------------------ #

    def output_rate(self, ring: int) -> float:
        """Transmit rate ``F_out(d)`` of a node in ring ``d`` (packets/s)."""
        topo = self._topology
        topo._check_ring(ring)  # noqa: SLF001 - deliberate reuse of the validator
        descendants = topo.descendants_per_node(ring)
        return self._sampling_rate * (descendants + 1.0)

    def input_rate(self, ring: int) -> float:
        """Receive rate ``F_in(d)`` of a node in ring ``d`` (packets/s)."""
        return self.output_rate(ring) - self._sampling_rate

    def background_rate(self, ring: int) -> float:
        """Overhearable rate ``F_B(d)`` around a node in ring ``d`` (packets/s).

        A node has ``C`` neighbours; each transmits at roughly the ring's
        output rate, and the transmissions addressed to the node itself
        (``F_in``) are accounted separately as receptions.  The overhearable
        background is therefore ``C * F_out(d) - F_in(d)``, floored at zero.
        """
        overheard = self._topology.density * self.output_rate(ring) - self.input_rate(ring)
        return max(0.0, overheard)

    def input_links(self, ring: int) -> float:
        """Expected number of tree children ``I(d)`` of a node in ring ``d``."""
        return self._topology.children_per_node(ring)

    def peak_output_rate(self, ring: int) -> float:
        """Peak transmit rate ``beta * F_out(d)`` the MAC must absorb."""
        return self._burstiness * self.output_rate(ring)

    def peak_input_rate(self, ring: int) -> float:
        """Peak receive rate ``beta * F_in(d)`` the MAC must absorb."""
        return self._burstiness * self.input_rate(ring)

    def ring_traffic(self, ring: int) -> RingTraffic:
        """Bundle all per-ring quantities into a :class:`RingTraffic`."""
        return RingTraffic(
            ring=ring,
            generated=self._sampling_rate,
            output=self.output_rate(ring),
            input=self.input_rate(ring),
            background=self.background_rate(ring),
            input_links=self.input_links(ring),
            peak_output=self.peak_output_rate(ring),
            peak_input=self.peak_input_rate(ring),
        )

    def all_rings(self) -> Dict[int, RingTraffic]:
        """Return the :class:`RingTraffic` of every ring, keyed by ring index."""
        return {ring: self.ring_traffic(ring) for ring in self._topology.rings()}

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    def bottleneck_output_rate(self) -> float:
        """Transmit rate of the most loaded node (ring 1)."""
        return self.output_rate(self._topology.bottleneck_ring)

    def sink_arrival_rate(self) -> float:
        """Aggregate packet arrival rate at the sink (packets per second)."""
        return self._sampling_rate * self._topology.total_nodes()

    def network_offered_load(self) -> float:
        """Total number of link transmissions per second across the network.

        Every packet generated in ring ``d`` crosses ``d`` links, so the
        offered load is ``Fs * sum_d d * C (2d - 1)``.
        """
        total = 0.0
        for ring in self._topology.rings():
            total += ring * self._topology.nodes_in_ring(ring)
        return self._sampling_rate * total

    def describe(self) -> Mapping[str, float]:
        """Summary used by reports and experiment headers."""
        return {
            "sampling_rate_hz": self._sampling_rate,
            "sampling_period_s": self.sampling_period,
            "burstiness": self._burstiness,
            "bottleneck_output_rate_hz": self.bottleneck_output_rate(),
            "peak_bottleneck_output_rate_hz": self.peak_output_rate(
                self._topology.bottleneck_ring
            ),
            "sink_arrival_rate_hz": self.sink_arrival_rate(),
            "network_offered_load_hz": self.network_offered_load(),
        }
