"""Shared fixtures for the test suite."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import cached_property

import pytest

from repro.core.parameters import Parameter, ParameterSpace
from repro.core.requirements import ApplicationRequirements
from repro.network.packets import PacketModel
from repro.network.radio import cc2420
from repro.network.topology import RingTopology
from repro.protocols.base import DutyCycledMACModel, EnergyBreakdown
from repro.protocols.dmac import DMACModel
from repro.protocols.lmac import LMACModel
from repro.protocols.registry import register_protocol, unregister_protocol
from repro.protocols.scpmac import SCPMACModel
from repro.protocols.xmac import XMACModel
from repro.runtime import executor as executor_module
from repro.runtime.executor import shutdown_pools
from repro.scenario import Scenario


class AnalyticalOnlyMAC(DutyCycledMACModel):
    """A minimal protocol model with no simulated behaviour.

    All four built-in protocols have simulators, so the tests that exercise
    the "analytical-only protocol" error paths (spec validation, campaign
    assembly, the behaviour factory) register this stand-in instead.
    """

    name = "Analytical-Only"
    family = "test"

    @cached_property
    def parameter_space(self) -> ParameterSpace:
        return ParameterSpace(
            [
                Parameter(
                    name="interval",
                    lower=0.01,
                    upper=1.0,
                    unit="s",
                    description="test duty-cycle interval",
                )
            ]
        )

    def energy_breakdown(self, params, ring):
        interval = self.coerce(params)["interval"]
        return EnergyBreakdown(
            carrier_sense=1e-3 / interval, transmit=0.0, receive=0.0, overhear=0.0
        )

    def hop_latency(self, params, ring):
        return 0.5 * self.coerce(params)["interval"]

    def duty_cycle(self, params, ring):
        return min(1.0, 1e-3 / self.coerce(params)["interval"])

    def capacity_margin(self, params):
        return 1.0


@pytest.fixture
def small_scenario() -> Scenario:
    """A small, fast scenario used by most unit tests."""
    return Scenario(
        topology=RingTopology(depth=4, density=6),
        sampling_rate=1.0 / 600.0,
        radio=cc2420(),
        packets=PacketModel(payload_bytes=32.0),
    )


@pytest.fixture
def paper_scenario() -> Scenario:
    """The scenario used by the figure reproductions (slower, larger)."""
    return Scenario(
        topology=RingTopology(depth=5, density=8),
        sampling_rate=1.0 / 3600.0,
    )


@pytest.fixture
def requirements(small_scenario: Scenario) -> ApplicationRequirements:
    """Loose application requirements that every protocol can meet."""
    return ApplicationRequirements(
        energy_budget=0.06,
        max_delay=6.0,
        sampling_rate=small_scenario.sampling_rate,
    )


@pytest.fixture
def xmac(small_scenario: Scenario) -> XMACModel:
    """X-MAC model bound to the small scenario."""
    return XMACModel(small_scenario)


@pytest.fixture
def dmac(small_scenario: Scenario) -> DMACModel:
    """DMAC model bound to the small scenario."""
    return DMACModel(small_scenario)


@pytest.fixture
def lmac(small_scenario: Scenario) -> LMACModel:
    """LMAC model bound to the small scenario."""
    return LMACModel(small_scenario)


@pytest.fixture
def scpmac(small_scenario: Scenario) -> SCPMACModel:
    """SCP-MAC model bound to the small scenario."""
    return SCPMACModel(small_scenario)


@pytest.fixture
def all_protocols(xmac, dmac, lmac, scpmac):
    """The four protocol models, keyed by canonical name."""
    return {"xmac": xmac, "dmac": dmac, "lmac": lmac, "scpmac": scpmac}


@pytest.fixture
def analytical_only_model_class():
    """The behaviour-less model class (for factory-level error tests)."""
    return AnalyticalOnlyMAC


@pytest.fixture
def analytical_only_protocol():
    """Register the behaviour-less test protocol, yield its name, clean up."""
    register_protocol("analyticalonly", AnalyticalOnlyMAC, overwrite=True)
    yield "analyticalonly"
    unregister_protocol("analyticalonly")


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every process pool forked during the test.

    The test starts from no kept pool, so its first pooled call forks
    through the recording class, and it leaves none behind.
    """
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    shutdown_pools()
    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", RecordingPool)
    yield sizes
    shutdown_pools()
