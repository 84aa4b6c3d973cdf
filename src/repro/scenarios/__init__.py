"""Scenario library: named evaluation environments.

The paper's framework is formulated for one canonical environment, but it
applies to any :class:`~repro.scenario.Scenario` that yields ``E(X)`` /
``L(X)`` cost surfaces.  This subpackage makes "any scenario" concrete:

* :mod:`repro.scenarios.presets` — a registry of named, documented
  :class:`ScenarioPreset` environments (dense/sparse rings, low-power vs.
  high-rate sampling, CC2420 / CC1100 / TR1001 radios, bursty vs. periodic
  traffic), each with suggested application requirements.
* :mod:`repro.scenarios.docs` — renders the registry into
  ``docs/scenarios.md`` so the documentation can never drift from the code.

The ``suite`` spec kind of :mod:`repro.api` solves the bargaining game over
every (scenario × protocol) pair of this registry in one batch.
"""

from repro.scenarios.presets import (
    ScenarioPreset,
    available_scenarios,
    register_scenario_preset,
    scenario_by_name,
    scenario_preset,
    scenario_presets,
    unregister_scenario_preset,
)

__all__ = [
    "ScenarioPreset",
    "available_scenarios",
    "register_scenario_preset",
    "scenario_by_name",
    "scenario_preset",
    "scenario_presets",
    "unregister_scenario_preset",
]
