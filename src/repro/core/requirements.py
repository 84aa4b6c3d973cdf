"""Application requirements.

The framework's inputs are the application requirements: the per-node energy
budget ``Ebudget`` (joules per second of operation, i.e. watts), the
maximum tolerated end-to-end packet delay ``Lmax`` (seconds), and the
application sampling rate ``Fs`` (packets per second per source).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.exceptions import ConfigurationError
from repro.units import s_to_ms


@dataclass(frozen=True)
class ApplicationRequirements:
    """Application-level requirements fed to the energy-delay game.

    Attributes:
        energy_budget: Maximum admissible system-wide energy consumption
            ``Ebudget`` in joules per second (i.e. average radio power of the
            bottleneck node).
        max_delay: Maximum admissible end-to-end packet delay ``Lmax`` in
            seconds.
        sampling_rate: Application sampling rate ``Fs`` in packets per second
            per source node.
    """

    energy_budget: float
    max_delay: float
    sampling_rate: float = 1.0 / 300.0

    def __post_init__(self) -> None:
        for name in ("energy_budget", "max_delay", "sampling_rate"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ConfigurationError(
                    f"ApplicationRequirements.{name} must be a positive number, got {value!r}"
                )

    @property
    def sampling_period(self) -> float:
        """Application sampling period ``1 / Fs`` in seconds."""
        return 1.0 / self.sampling_rate

    @property
    def max_delay_ms(self) -> float:
        """The delay bound expressed in milliseconds (the paper's unit)."""
        return s_to_ms(self.max_delay)

    def with_energy_budget(self, energy_budget: float) -> "ApplicationRequirements":
        """Return a copy with a different energy budget (used in sweeps)."""
        return replace(self, energy_budget=energy_budget)

    def with_max_delay(self, max_delay: float) -> "ApplicationRequirements":
        """Return a copy with a different delay bound (used in sweeps)."""
        return replace(self, max_delay=max_delay)

    def satisfied_by(self, energy: float, delay: float, tolerance: float = 1e-9) -> bool:
        """Whether an ``(energy, delay)`` operating point meets both requirements."""
        return (
            energy <= self.energy_budget * (1.0 + tolerance) + tolerance
            and delay <= self.max_delay * (1.0 + tolerance) + tolerance
        )

    def describe(self) -> Mapping[str, float]:
        """Summary used in reports and experiment headers."""
        return {
            "energy_budget_j_per_s": self.energy_budget,
            "max_delay_s": self.max_delay,
            "sampling_rate_hz": self.sampling_rate,
        }
