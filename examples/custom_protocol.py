"""Apply the game framework to a protocol that is not in the paper.

The framework is protocol-agnostic: anything that can express its bottleneck
energy and end-to-end delay as functions of a tunable parameter vector can be
dropped into the same Nash bargaining machinery.  This example defines a toy
"Beacon-MAC" (receiver-initiated: receivers advertise their wake-ups with
beacons, senders wait for the next beacon of their parent), registers it with
``register_protocol(..., overwrite=True)`` (safe to re-run in a notebook),
and solves the game for it alongside X-MAC through the declarative
experiment pipeline — the registry is what makes a user-defined name valid
in an :class:`~repro.api.spec.ExperimentSpec`'s ``protocols`` field.
It takes the scalar-only route (a :class:`DutyCycledMACModel` evaluates a
grid row by row through its scalar methods), while the built-in protocols
take the closed-form one: they derive from
:class:`~repro.protocols.base.ClosedFormMACModel` and state each quantity
once, as an expression that the point and grid paths both run.

Run with::

    python examples/custom_protocol.py
"""

from __future__ import annotations

from functools import cached_property

from repro.analysis.reporting import format_table
from repro.api import ExperimentSpec, run
from repro.core.parameters import Parameter, ParameterSpace
from repro.protocols.base import DutyCycledMACModel, EnergyBreakdown
from repro.protocols.registry import register_protocol, unregister_protocol


class BeaconMACModel(DutyCycledMACModel):
    """Receiver-initiated duty-cycled MAC (in the spirit of RI-MAC / A-MAC).

    Tunable parameter: the beacon interval ``Tb``.  Receivers wake every
    ``Tb`` and transmit a short beacon; a sender stays awake from the moment
    it has a packet until it hears its parent's beacon (``Tb / 2`` on
    average, spent *listening* rather than strobing), then exchanges data and
    acknowledgement.
    """

    name = "Beacon-MAC"
    family = "receiver-initiated"

    BEACON_INTERVAL = "beacon_interval"

    @cached_property
    def parameter_space(self) -> ParameterSpace:
        return ParameterSpace(
            [
                Parameter(
                    name=self.BEACON_INTERVAL,
                    lower=0.02,
                    upper=min(5.0, self.scenario.sampling_period),
                    unit="s",
                    description="receiver beacon interval Tb",
                )
            ]
        )

    def _beacon_interval(self, params) -> float:
        return self.coerce(params)[self.BEACON_INTERVAL]

    def energy_breakdown(self, params, ring: int) -> EnergyBreakdown:
        beacon = self._beacon_interval(params)
        radio = self.scenario.radio
        packets = self.scenario.packets
        traffic = self.ring_traffic(ring)
        beacon_airtime = packets.strobe_airtime(radio)
        data = packets.data_airtime(radio)
        ack = packets.ack_airtime(radio)

        carrier_sense = (radio.wakeup_time + beacon_airtime) * radio.power_tx / beacon
        transmit = traffic.output * (0.5 * beacon * radio.power_rx + data * radio.power_tx + ack * radio.power_rx)
        receive = traffic.input * (data * radio.power_rx + ack * radio.power_tx)
        overhear = traffic.background * beacon_airtime * radio.power_rx
        sleep = radio.power_sleep * max(0.0, 1.0 - self.duty_cycle(params, ring))
        return EnergyBreakdown(
            carrier_sense=carrier_sense,
            transmit=transmit,
            receive=receive,
            overhear=overhear,
            sleep=sleep,
        )

    def hop_latency(self, params, ring: int) -> float:
        del ring
        beacon = self._beacon_interval(params)
        packets = self.scenario.packets
        radio = self.scenario.radio
        return 0.5 * beacon + packets.hop_exchange_time(radio)

    def duty_cycle(self, params, ring: int) -> float:
        beacon = self._beacon_interval(params)
        traffic = self.ring_traffic(ring)
        packets = self.scenario.packets
        radio = self.scenario.radio
        awake = (
            (radio.wakeup_time + packets.strobe_airtime(radio)) / beacon
            + traffic.output * (0.5 * beacon + packets.hop_exchange_time(radio))
            + traffic.input * packets.hop_exchange_time(radio)
        )
        return min(1.0, awake)

    def capacity_margin(self, params) -> float:
        beacon = self._beacon_interval(params)
        traffic = self.ring_traffic(self.scenario.topology.bottleneck_ring)
        packets = self.scenario.packets
        radio = self.scenario.radio
        busy = (traffic.output + traffic.input) * (0.5 * beacon + packets.hop_exchange_time(radio))
        return self.max_utilization - busy


def main() -> None:
    # ``overwrite=True`` makes the registration idempotent, so re-running
    # the script (or a notebook cell) never trips over the previous run.
    register_protocol("beaconmac", BeaconMACModel, overwrite=True)
    try:
        # The registered name is now a valid spec protocol: one declarative
        # description, planned and executed like any built-in workload.
        spec = (
            ExperimentSpec.experiment("solve", name="beacon-mac-demo")
            .with_scenario({"depth": 5, "density": 8, "sampling_period": 300.0})
            .with_protocols("xmac", "beaconmac")
            .with_requirements(energy_budget=0.06, max_delay=2.0)
            .with_solver(grid_points=80)
        )
        result = run(spec)
        rows = [
            {
                "protocol": record.value.protocol,
                "E_best [mW]": record.value.energy_best * 1000.0,
                "E_worst [mW]": record.value.energy_worst * 1000.0,
                "E* [mW]": record.value.energy_star * 1000.0,
                "L* [ms]": record.value.delay_star * 1000.0,
                "fairness": record.value.bargaining.fairness_residual,
            }
            for record in result
        ]
        print(format_table(rows, precision=4))
        print()
        print(f"# spec sha256: {result.provenance[:16]}…")
        print(
            "Beacon-MAC trades the sender's strobing for idle listening: the game "
            "framework prices both and finds each protocol's own fair operating point."
        )
    finally:
        unregister_protocol("beaconmac")


if __name__ == "__main__":
    main()
