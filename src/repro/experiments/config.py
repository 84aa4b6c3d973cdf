"""Shared configuration of the figure reproductions.

The paper's evaluation fixes ``Ebudget = 0.06 J`` while sweeping
``Lmax`` over 1..6 seconds (Figure 1) and fixes ``Lmax = 6 s`` while sweeping
``Ebudget`` over 0.01..0.06 J (Figure 2), for X-MAC, DMAC and LMAC.  The
underlying network scenario is not stated in the brief announcement; the
values below (the ``paper-default`` preset of docs/scenarios.md) are chosen
so that the published qualitative behaviour — which constraint binds for
which requirement value — is reproduced.
"""

from __future__ import annotations

from repro.network.packets import PacketModel
from repro.network.radio import cc2420
from repro.network.topology import RingTopology
from repro.scenario import Scenario

#: Delay bounds swept in Figure 1 (seconds).
FIGURE_DELAY_BOUNDS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

#: Energy budgets swept in Figure 2 (joules per second).
FIGURE_ENERGY_BUDGETS = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06)

#: Energy budget fixed in Figure 1 (joules per second).
FIGURE_ENERGY_BUDGET_FIXED = 0.06

#: Delay bound fixed in Figure 2 (seconds).
FIGURE_MAX_DELAY_FIXED = 6.0

#: Grid resolution used by the hybrid solver inside the figure experiments.
#: Coarse enough to keep each of the 36 game solves fast, fine enough that the
#: polish converges to the same optimum as a much denser grid.
FIGURE_GRID_POINTS = 60

#: Application sampling period used by the figure experiments (seconds).
#: One reading per node per hour, the "very low data-rate monitoring"
#: operating point of Langendoen & Meier that the paper builds on.
FIGURE_SAMPLING_PERIOD = 3600.0


def figure_scenario() -> Scenario:
    """The evaluation scenario used by both figure reproductions.

    Five rings, eight neighbours per node, one sample per node per hour,
    CC2420-class radio, 32-byte payloads.
    """
    return Scenario(
        topology=RingTopology(depth=5, density=8),
        sampling_rate=1.0 / FIGURE_SAMPLING_PERIOD,
        radio=cc2420(),
        packets=PacketModel(payload_bytes=32.0),
    )
