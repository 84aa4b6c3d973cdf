"""Validate the analytical protocol models against the packet-level simulator.

The paper's framework rests on closed-form energy and delay models; this
example checks them against the discrete-event simulator on the same
configuration (same topology, traffic, radio and MAC parameters), the way an
experimental section would.

Run with::

    python examples/simulation_validation.py [--horizon 4000]
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import format_table
from repro.analysis.validation import validate_protocol
from repro.network.topology import RingTopology
from repro.protocols import DMACModel, LMACModel, XMACModel
from repro.scenario import Scenario
from repro.simulation import SimulationConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=float, default=4000.0, help="simulated seconds")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    scenario = Scenario(
        topology=RingTopology(depth=4, density=6),
        sampling_rate=1.0 / 600.0,
    )
    config = SimulationConfig(horizon=args.horizon, seed=args.seed)

    cases = [
        (XMACModel(scenario), {"wakeup_interval": 0.4}),
        (DMACModel(scenario), {"frame_length": 1.0}),
        (LMACModel(scenario), {"slot_length": 0.02, "slot_count": 13.0}),
    ]

    rows = []
    for model, params in cases:
        report = validate_protocol(model, params, config)
        rows.append(
            {
                "protocol": report.protocol,
                "E model [mW]": report.analytical_energy * 1000.0,
                "E sim [mW]": report.simulated_energy * 1000.0,
                "E error": f"{report.energy_error:.1%}",
                "L model [ms]": report.analytical_delay * 1000.0,
                "L sim [ms]": report.simulated_delay * 1000.0,
                "L error": f"{report.delay_error:.1%}",
                "delivery": f"{report.delivery_ratio:.1%}",
            }
        )
    print(f"Scenario: {scenario.describe()}")
    print(f"Horizon: {args.horizon:.0f} s, seed {args.seed}")
    print()
    print(format_table(rows, precision=4))
    print()
    print(
        "Energy of the bottleneck ring and end-to-end delay of the outermost ring\n"
        "agree with the closed-form models under unsaturated load; docs/validation.md\n"
        "gates the same comparison, replicated, at every preset's Nash point."
    )


if __name__ == "__main__":
    main()
