"""Analytical-model vs simulation validation (single-configuration spot check).

The brief announcement justifies its framework with closed-form models; this
module quantifies how well those models agree with the packet-level
simulator on the same configuration, which is the reproduction's substitute
for the missing experimental evaluation.

This is the one-seed, one-configuration check behind
``repro-mac-game validate``.  For replicated, statistically quantified
campaigns over the whole scenario suite — Welford aggregates, Student-t
confidence intervals, per-metric tolerance gates and a versioned artifact —
see :mod:`repro.validation` (``repro-mac-game validate-campaign``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.exceptions import SimulationError, ValidationError
from repro.protocols.base import DutyCycledMACModel, ParameterVector
from repro.simulation.runner import ReplicationMeasurement, SimulationConfig, simulate_protocol


@dataclass(frozen=True)
class ValidationReport:
    """Comparison of analytical predictions against simulation measurements.

    Attributes:
        protocol: Protocol name.
        parameters: Parameter vector the comparison was run at.
        analytical_energy: Predicted ring-1 per-node power (J/s).
        simulated_energy: Measured mean ring-1 per-node power (J/s).
        analytical_delay: Predicted end-to-end delay from ring ``D`` (s).
        simulated_delay: Measured mean end-to-end delay from ring ``D`` (s).
        delivery_ratio: Fraction of generated packets delivered.
    """

    protocol: str
    parameters: Mapping[str, float]
    analytical_energy: float
    simulated_energy: float
    analytical_delay: float
    simulated_delay: float
    delivery_ratio: float

    @property
    def energy_error(self) -> float:
        """Relative error of the energy prediction (simulation as reference)."""
        if self.simulated_energy == 0:
            raise ValidationError("simulated energy is zero; cannot compute a relative error")
        return abs(self.analytical_energy - self.simulated_energy) / self.simulated_energy

    @property
    def delay_error(self) -> float:
        """Relative error of the delay prediction (simulation as reference)."""
        if self.simulated_delay == 0:
            raise ValidationError("simulated delay is zero; cannot compute a relative error")
        return abs(self.analytical_delay - self.simulated_delay) / self.simulated_delay

    def within(self, energy_tolerance: float, delay_tolerance: float) -> bool:
        """Whether both relative errors are within the given tolerances."""
        return self.energy_error <= energy_tolerance and self.delay_error <= delay_tolerance

    @classmethod
    def from_measurement(
        cls,
        model: DutyCycledMACModel,
        params: ParameterVector,
        measurement: ReplicationMeasurement,
    ) -> "ValidationReport":
        """Compare one simulated replication against the analytical model.

        The comparison uses the mean ring-1 node power (the analytical
        bottleneck quantity) and the mean end-to-end delay of packets
        generated in the farthest delivering ring (the analytical ``L``).

        Raises:
            SimulationError: if the replication delivered no packet (use
                :mod:`repro.validation` campaigns to record zero delivery as
                data instead).
        """
        if measurement.delay is None:
            raise SimulationError("no packet was delivered during the simulation")
        params_dict = model.coerce(params)
        return cls(
            protocol=model.name,
            parameters=params_dict,
            analytical_energy=model.node_energy(
                params_dict, model.scenario.topology.bottleneck_ring
            ),
            simulated_energy=measurement.energy,
            analytical_delay=model.system_latency(params_dict),
            simulated_delay=measurement.delay,
            delivery_ratio=measurement.delivery_ratio,
        )

    def as_dict(self) -> Mapping[str, object]:
        """Flat summary used by reports and benches."""
        return {
            "protocol": self.protocol,
            "parameters": dict(self.parameters),
            "analytical_energy_j_per_s": self.analytical_energy,
            "simulated_energy_j_per_s": self.simulated_energy,
            "energy_error": self.energy_error,
            "analytical_delay_s": self.analytical_delay,
            "simulated_delay_s": self.simulated_delay,
            "delay_error": self.delay_error,
            "delivery_ratio": self.delivery_ratio,
        }


def validate_protocol(
    model: DutyCycledMACModel,
    params: ParameterVector,
    config: Optional[SimulationConfig] = None,
) -> ValidationReport:
    """Simulate one configuration and compare it against the analytical model.

    Args:
        model: Analytical protocol model (defines scenario and timing).
        params: Parameter vector to validate at (mapping or array).
        config: Simulation configuration; defaults to a 2000-second run.

    Returns:
        A :class:`ValidationReport` comparing prediction and measurement
        (:meth:`ValidationReport.from_measurement`).

    Raises:
        SimulationError: if the protocol has no simulated behaviour or the
            run delivers no packet.
    """
    config = config or SimulationConfig()
    result = simulate_protocol(model, params, config)
    return ValidationReport.from_measurement(
        model, params, ReplicationMeasurement.from_result(result, config.seed)
    )
