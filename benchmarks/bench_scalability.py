"""Scalability benchmark (paper's claim, last sentence of the abstract).

The framework's players are the performance metrics, not the nodes, so the
solve cost must stay essentially flat as the network grows.  The bench times
the full game solve across network sizes from dozens to thousands of nodes
and asserts that the cost grows far slower than the node count.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_series
from repro.analysis.scalability import scalability_study
from repro.core.requirements import ApplicationRequirements
from repro.protocols import XMACModel

SIZES = [(3, 4), (5, 8), (8, 10), (12, 16)]
REQUIREMENTS = ApplicationRequirements(energy_budget=0.06, max_delay=6.0)


def _run_study():
    return scalability_study(
        XMACModel,
        sizes=SIZES,
        requirements=REQUIREMENTS,
        grid_points_per_dimension=48,
    )


def test_scalability_with_network_size(benchmark):
    records = benchmark.pedantic(_run_study, rounds=1, iterations=1)
    rows = [
        {
            "depth": record.depth,
            "density": record.density,
            "nodes": record.node_count,
            "solve [s]": record.solve_seconds,
            "E* [J/s]": record.energy_star,
            "L* [ms]": record.delay_star * 1000.0,
        }
        for record in records
    ]
    print_series("Scalability: game solve time vs network size (X-MAC)", rows)

    nodes = [record.node_count for record in records]
    times = [record.solve_seconds for record in records]
    assert nodes[-1] / nodes[0] > 40  # 48 nodes -> 2304 nodes
    # Solve time may wobble with solver iterations, but it must not scale
    # anywhere near linearly with the node count.
    assert times[-1] < 8.0 * max(times[0], 0.05)
    # Larger, deeper networks pay more delay at the agreement.
    assert records[-1].delay_star > records[0].delay_star
