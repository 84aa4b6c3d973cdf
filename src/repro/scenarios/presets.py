"""Named, documented scenario presets.

The paper evaluates its bargaining framework in one canonical environment —
a five-ring topology with eight neighbours per node, one sample per node per
hour, and a CC2420-class radio — but nothing in the framework is tied to
those numbers: any :class:`~repro.scenario.Scenario` that yields ``E(X)`` /
``L(X)`` cost surfaces defines a valid game.  This module curates a registry
of named presets spanning the axes that matter in deployments:

* **topology** — dense vs. sparse neighbourhoods, shallow vs. deep rings;
* **workload** — low-power monitoring vs. high-rate sensing, strictly
  periodic vs. bursty arrivals;
* **hardware** — the paper's CC2420 alongside sub-GHz (CC1100) and legacy
  bit radios (TR1001).

Each preset bundles a frozen scenario with *suggested application
requirements* ``(Ebudget, Lmax)`` chosen so the game is feasible for the
protocols the preset targets, a one-line title and a multi-paragraph
description.  The descriptions are the single source of the generated
``docs/scenarios.md`` (see :mod:`repro.scenarios.docs`), so a preset is
documented by construction.

Example:
    >>> from repro.scenarios import scenario_preset
    >>> preset = scenario_preset("paper-default")
    >>> preset.scenario.depth
    5
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.core.requirements import ApplicationRequirements
from repro.exceptions import ConfigurationError
from repro.experiments.config import figure_scenario
from repro.network.radio import cc1100, cc2420, tr1001
from repro.network.topology import RingTopology
from repro.runtime.executor import shutdown_pools
from repro.scenario import Scenario

#: Preset names must be kebab-case identifiers (they appear on the CLI).
_NAME_PATTERN = re.compile(r"^[a-z0-9]+(-[a-z0-9]+)*$")


@dataclass(frozen=True)
class ScenarioPreset:
    """One named, documented evaluation environment.

    Attributes:
        name: Kebab-case registry key (e.g. ``"dense-ring"``).
        title: One-line human-readable summary.
        description: Multi-line markdown description; rendered verbatim into
            ``docs/scenarios.md``.
        scenario: The frozen evaluation environment.
        energy_budget: Suggested ``Ebudget`` (J/s) for suite runs.
        max_delay: Suggested ``Lmax`` (seconds) for suite runs.
        tags: Free-form labels for filtering/reporting.
    """

    name: str
    title: str
    description: str
    scenario: Scenario
    energy_budget: float
    max_delay: float
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not _NAME_PATTERN.match(self.name):
            raise ConfigurationError(
                f"preset name must be kebab-case, got {self.name!r}"
            )
        if not self.title.strip() or not self.description.strip():
            raise ConfigurationError(
                f"preset {self.name!r} needs a non-empty title and description"
            )
        if not isinstance(self.scenario, Scenario):
            raise ConfigurationError(
                f"preset {self.name!r}: scenario must be a Scenario, "
                f"got {type(self.scenario).__name__}"
            )
        if self.energy_budget <= 0 or self.max_delay <= 0:
            raise ConfigurationError(
                f"preset {self.name!r}: suggested requirements must be positive"
            )

    def requirements(self) -> ApplicationRequirements:
        """The preset's suggested application requirements."""
        return ApplicationRequirements(
            energy_budget=self.energy_budget,
            max_delay=self.max_delay,
            sampling_rate=self.scenario.sampling_rate,
        )

    def describe(self) -> Mapping[str, object]:
        """Flat summary row used by the CLI listing and the docs table."""
        scenario = self.scenario
        return {
            "name": self.name,
            "title": self.title,
            "depth": scenario.depth,
            "density": scenario.density,
            "sampling_period_s": scenario.sampling_period,
            "burstiness": scenario.burstiness,
            "radio": scenario.radio.name,
            "energy_budget": self.energy_budget,
            "max_delay": self.max_delay,
            "tags": ",".join(self.tags),
        }


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #

_REGISTRY: Dict[str, ScenarioPreset] = {}
_BUILTIN_NAMES: Tuple[str, ...] = ()


def register_scenario_preset(preset: ScenarioPreset) -> None:
    """Register a user-defined preset under its name.

    This is the extension point for adding deployment-specific environments
    without touching the library; see ``examples/scenario_suite.py``.
    Registering joins the process's kept pool, so the next parallel run
    forks workers that know the preset.

    Raises:
        ConfigurationError: if the name is already taken or the argument is
            not a :class:`ScenarioPreset`.
    """
    if not isinstance(preset, ScenarioPreset):
        raise ConfigurationError(
            f"expected a ScenarioPreset, got {type(preset).__name__}"
        )
    if preset.name in _REGISTRY:
        raise ConfigurationError(
            f"scenario preset {preset.name!r} is already registered"
        )
    _REGISTRY[preset.name] = preset
    # A kept pool's workers were forked without this preset.
    shutdown_pools()


def unregister_scenario_preset(name: str) -> None:
    """Remove a previously registered user-defined preset (test helper).

    Raises:
        ConfigurationError: when asked to remove a built-in preset.
    """
    if name in _BUILTIN_NAMES:
        raise ConfigurationError(f"built-in preset {name!r} cannot be unregistered")
    _REGISTRY.pop(name, None)
    shutdown_pools()


def scenario_preset(name: str) -> ScenarioPreset:
    """Look up a preset by name.

    Raises:
        ConfigurationError: if the name does not match a registered preset
            (the message lists the known names).
    """
    key = name.strip().lower()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(f"unknown scenario {name!r}; known presets: {known}")
    return _REGISTRY[key]


def scenario_by_name(name: str) -> Scenario:
    """Return the :class:`~repro.scenario.Scenario` of the preset ``name``."""
    return scenario_preset(name).scenario


def available_scenarios() -> List[str]:
    """Names of every registered preset, in registration order."""
    return list(_REGISTRY)


def scenario_presets() -> List[ScenarioPreset]:
    """Every registered preset, in registration order."""
    return list(_REGISTRY.values())


# ---------------------------------------------------------------------- #
# Built-in presets
# ---------------------------------------------------------------------- #

_BUILTINS = (
    ScenarioPreset(
        name="paper-default",
        title="The paper's canonical environment (Figures 1–2)",
        description=(
            "Five rings with eight neighbours per node, one sample per node "
            "per hour on a CC2420-class IEEE 802.15.4 radio with 32-byte "
            "payloads — the environment behind the paper's two figures and "
            "the reference point every other preset perturbs.  Strictly "
            "periodic traffic; the suggested requirements are the paper's "
            "``Ebudget = 0.06 J/s`` and the loosest figure bound "
            "``Lmax = 6 s``."
        ),
        scenario=figure_scenario(),
        energy_budget=0.06,
        max_delay=6.0,
        tags=("paper", "periodic", "cc2420"),
    ),
    ScenarioPreset(
        name="dense-ring",
        title="Dense urban deployment (C = 16 neighbours)",
        description=(
            "Doubles the neighbourhood size to sixteen nodes while keeping "
            "the paper's depth and workload.  Dense deployments stress the "
            "overhearing terms of the energy models (every background "
            "transmission wakes more radios) and force LMAC into longer "
            "frames (the two-hop slot-assignment bound grows to "
            "``2C + 1 = 33`` slots), so the energy/delay frontier shifts "
            "up and to the right relative to ``paper-default``."
        ),
        scenario=figure_scenario().with_topology(density=16),
        energy_budget=0.06,
        max_delay=8.0,
        tags=("topology", "dense", "cc2420"),
    ),
    ScenarioPreset(
        name="sparse-ring",
        title="Sparse long-haul network (D = 8, C = 4)",
        description=(
            "A deep, thin network: eight rings with only four neighbours "
            "each, the shape of a pipeline or river monitoring deployment.  "
            "End-to-end delay sums three more hops than the paper's "
            "topology, so the delay player needs a looser ``Lmax`` "
            "(12 s suggested) before the game is feasible at all; the "
            "bottleneck ring still relays the whole network's traffic."
        ),
        scenario=figure_scenario().with_topology(depth=8, density=4),
        energy_budget=0.06,
        max_delay=12.0,
        tags=("topology", "sparse", "deep", "cc2420"),
    ),
    ScenarioPreset(
        name="low-power",
        title="Ultra-low-power monitoring (one sample per 4 h)",
        description=(
            "The paper's topology sampled once every four hours with a "
            "four-times-tighter energy budget (``0.015 J/s``): the regime "
            "of multi-year battery deployments.  Idle costs dominate — the "
            "optimum pushes wake-up intervals and frames toward their upper "
            "bounds, and the capacity constraint is essentially slack "
            "everywhere."
        ),
        scenario=figure_scenario().with_sampling_rate(1.0 / 14400.0),
        energy_budget=0.015,
        max_delay=20.0,
        tags=("workload", "low-power", "cc2420"),
    ),
    ScenarioPreset(
        name="high-rate",
        title="High-rate sensing (one sample per minute)",
        description=(
            "Sixty times the paper's sampling rate: one reading per node "
            "per minute, the regime of structural-health or industrial "
            "monitoring.  Per-packet costs dominate the energy balance and "
            "the capacity constraint starts to bite at the bottleneck ring, "
            "so the suggested budget is looser (``0.1 J/s``) and the delay "
            "bound tighter (3 s) than the paper's."
        ),
        scenario=figure_scenario().with_sampling_rate(1.0 / 60.0),
        energy_budget=0.1,
        max_delay=3.0,
        tags=("workload", "high-rate", "cc2420"),
    ),
    ScenarioPreset(
        name="sub-ghz",
        title="Sub-GHz radio (CC1100 at 76.8 kbps)",
        description=(
            "The paper's topology and workload on a CC1100-class sub-GHz "
            "transceiver: three times slower on air (76.8 kbps vs. "
            "250 kbps), so every frame exchange costs more energy and "
            "latency, but wake-ups are faster and carrier sensing cheaper.  "
            "Exercises the radio abstraction end to end — no protocol model "
            "hard-codes CC2420 constants."
        ),
        scenario=figure_scenario().with_radio(cc1100()),
        energy_budget=0.06,
        max_delay=6.0,
        tags=("hardware", "sub-ghz", "cc1100"),
    ),
    ScenarioPreset(
        name="legacy-bitradio",
        title="Legacy TR1001 bit radio (EYES nodes)",
        description=(
            "The TR1001 bit radio of the original LMAC work: very cheap "
            "reception (3.8 mA) but expensive transmission (12 mA) at "
            "115.2 kbps.  The asymmetric power draw flips which energy "
            "terms dominate — overhearing is nearly free, transmissions are "
            "not — which reorders the protocols relative to the CC2420 "
            "presets."
        ),
        scenario=figure_scenario().with_radio(tr1001()),
        energy_budget=0.04,
        max_delay=6.0,
        tags=("hardware", "legacy", "tr1001"),
    ),
    ScenarioPreset(
        name="bursty",
        title="Bursty arrivals (8-packet bursts every 80 min)",
        description=(
            "Event-driven traffic on the paper's topology: the same mean "
            "rate as one sample per node per 10 minutes, but emitted in "
            "bursts of eight back-to-back packets.  Mean rates — and hence "
            "energy — match a periodic workload; the *peak* rates the "
            "capacity constraints must provision for are eight times "
            "higher, which shrinks the admissible parameter region "
            "(wake-up intervals and frames must stay short enough to drain "
            "a burst)."
        ),
        scenario=figure_scenario().with_sampling_rate(1.0 / 600.0).with_burstiness(8.0),
        energy_budget=0.06,
        max_delay=6.0,
        tags=("workload", "bursty", "cc2420"),
    ),
)

_REGISTRY.update((preset.name, preset) for preset in _BUILTINS)
_BUILTIN_NAMES = tuple(preset.name for preset in _BUILTINS)
