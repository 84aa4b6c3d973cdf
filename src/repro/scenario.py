"""Scenario: the environment a MAC protocol is evaluated in.

A :class:`Scenario` bundles everything the analytical protocol models and the
simulator need besides the protocol's own tunable parameters: the ring
topology, the application traffic, the radio hardware and the frame sizes.
It is deliberately immutable so that a scenario can be shared between the two
virtual players, the sweeps and the simulator without accidental mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from repro.exceptions import ConfigurationError
from repro.network.packets import PacketModel
from repro.network.radio import RadioModel, cc2420
from repro.network.topology import RingTopology
from repro.network.traffic import TrafficModel
from repro.units import require_positive


@dataclass(frozen=True)
class Scenario:
    """Evaluation environment shared by all protocol models.

    Attributes:
        topology: Analytical ring topology (depth ``D``, density ``C``).
        sampling_rate: Application sampling rate ``Fs`` in packets/s/node.
        radio: Radio hardware model.
        packets: Frame-size model.
        burstiness: Traffic burst factor ``beta >= 1``.  Samples are emitted
            in bursts of ``beta`` back-to-back packets: mean rates (and thus
            energy) are unchanged, peak rates (and thus the capacity
            constraints) scale by ``beta``.  ``1.0`` is strictly periodic.
    """

    topology: RingTopology = field(default_factory=lambda: RingTopology(depth=5, density=8))
    sampling_rate: float = 1.0 / 300.0
    radio: RadioModel = field(default_factory=cc2420)
    packets: PacketModel = field(default_factory=PacketModel)
    burstiness: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.topology, RingTopology):
            raise ConfigurationError(
                f"topology must be a RingTopology, got {type(self.topology).__name__}"
            )
        if not isinstance(self.radio, RadioModel):
            raise ConfigurationError(
                f"radio must be a RadioModel, got {type(self.radio).__name__}"
            )
        if not isinstance(self.packets, PacketModel):
            raise ConfigurationError(
                f"packets must be a PacketModel, got {type(self.packets).__name__}"
            )
        try:
            require_positive("sampling_rate", self.sampling_rate)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        if not isinstance(self.burstiness, (int, float)) or self.burstiness < 1.0:
            raise ConfigurationError(
                f"burstiness must be a number >= 1, got {self.burstiness!r}"
            )

    # ------------------------------------------------------------------ #
    # Derived objects
    # ------------------------------------------------------------------ #

    @property
    def traffic(self) -> TrafficModel:
        """Traffic model induced by the topology, sampling rate and burstiness."""
        return TrafficModel(self.topology, self.sampling_rate, self.burstiness)

    @property
    def depth(self) -> int:
        """Number of rings ``D``."""
        return self.topology.depth

    @property
    def density(self) -> int:
        """Unit-disk neighbourhood size ``C``."""
        return self.topology.density

    @property
    def sampling_period(self) -> float:
        """Application sampling period ``1/Fs`` in seconds."""
        return 1.0 / self.sampling_rate

    # ------------------------------------------------------------------ #
    # Variations
    # ------------------------------------------------------------------ #

    def with_topology(self, depth: Optional[int] = None, density: Optional[int] = None) -> "Scenario":
        """Return a copy with a different ring topology."""
        new_depth = self.topology.depth if depth is None else depth
        new_density = self.topology.density if density is None else density
        return replace(self, topology=RingTopology(depth=new_depth, density=new_density))

    def with_sampling_rate(self, sampling_rate: float) -> "Scenario":
        """Return a copy with a different application sampling rate."""
        return replace(self, sampling_rate=sampling_rate)

    def with_radio(self, radio: RadioModel) -> "Scenario":
        """Return a copy with a different radio model."""
        return replace(self, radio=radio)

    def with_packets(self, packets: PacketModel) -> "Scenario":
        """Return a copy with a different frame-size model."""
        return replace(self, packets=packets)

    def with_burstiness(self, burstiness: float) -> "Scenario":
        """Return a copy with a different traffic burst factor."""
        return replace(self, burstiness=burstiness)

    def describe(self) -> Mapping[str, object]:
        """Structured summary for reports and experiment headers."""
        return {
            "depth": self.topology.depth,
            "density": self.topology.density,
            "total_nodes": self.topology.total_nodes(),
            "sampling_rate_hz": self.sampling_rate,
            "sampling_period_s": self.sampling_period,
            "burstiness": self.burstiness,
            "radio": self.radio.name,
            "payload_bytes": self.packets.payload_bytes,
        }


def default_scenario() -> Scenario:
    """A ready-made scenario for examples and quick checks.

    Five rings, eight neighbours per node, one sample per node every five
    minutes on a CC2420-class radio with 32-byte payloads.  The figures run
    on the hourly ``paper-default`` preset instead
    (:func:`repro.experiments.config.figure_scenario`).
    """
    return Scenario(
        topology=RingTopology(depth=5, density=8),
        sampling_rate=1.0 / 300.0,
        radio=cc2420(),
        packets=PacketModel(payload_bytes=32.0),
    )
