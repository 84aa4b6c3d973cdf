"""Plan expansion: spec → explicit, inspectable work units.

:func:`plan` turns an :class:`~repro.api.spec.ExperimentSpec` into an
:class:`ExperimentPlan` — a flat, ordered list of :class:`WorkUnit`\\ s — so
callers can *count, filter and shard* the work before spending any compute::

    >>> from repro.api import ExperimentSpec, plan
    >>> spec = ExperimentSpec.experiment("suite").with_scenarios(
    ...     "paper-default", "high-rate").with_protocols("xmac", "lmac")
    >>> plan(spec).count
    4

Plan expansion resolves every name (scenario presets, protocol registry
entries, sweep parameters) and validates the spec's *completeness* for its
workload kind, so a plan that builds is a plan that can run; the expensive
part (model construction, game solves, simulations) is deferred to
:func:`repro.api.engine.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.spec import (
    SWEEP_PARAMETERS,
    ExperimentSpec,
    ScenarioRef,
)
from repro.exceptions import ConfigurationError
from repro.experiments.config import (
    FIGURE_DELAY_BOUNDS,
    FIGURE_ENERGY_BUDGET_FIXED,
    FIGURE_ENERGY_BUDGETS,
    FIGURE_MAX_DELAY_FIXED,
)
from repro.network.radio import radio_by_name
from repro.network.topology import RingTopology
from repro.protocols.registry import (
    PAPER_PROTOCOL_NAMES,
    available_protocols,
    canonical_name,
    create_protocol,
    protocol_class,
)
from repro.scenario import Scenario
from repro.scenarios.presets import available_scenarios, scenario_preset
from repro.simulation.batched.kernels import available_mac_protocols, has_behaviour_for
from repro.simulation.runner import check_horizon

#: Default application requirements of the ``solve``/``sweep`` kinds (the
#: CLI's historical defaults).
DEFAULT_ENERGY_BUDGET = 0.06
DEFAULT_MAX_DELAY = 6.0

#: Label used for inline (non-preset) scenarios in units and result rows.
CUSTOM_SCENARIO_LABEL = "custom"

#: Default scenario preset of the single-environment kinds.
DEFAULT_SCENARIO = "paper-default"


@dataclass(frozen=True)
class WorkUnit:
    """One independent, inspectable piece of an experiment plan.

    Attributes:
        kind: Unit kind — ``"game-solve"`` (one bargaining-game solve),
            ``"simulation"`` (one model-vs-simulator comparison) or
            ``"campaign-cell"`` (one replicated Monte-Carlo cell).
        scenario: Scenario label (preset name, or ``"custom"`` for inline
            scenarios).
        protocol: Canonical protocol name.
        index: Position in the fully expanded plan (stable under
            ``filter``/``shard``, so a sharded unit still knows where it
            sits in the whole experiment).
        settings: Flat, JSON-ready unit parameters (requirement values,
            swept value, grid resolution, seeds, ...).
    """

    kind: str
    scenario: str
    protocol: str
    index: int
    settings: Mapping[str, object]

    def __post_init__(self) -> None:
        object.__setattr__(self, "settings", dict(self.settings))

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "kind": self.kind,
            "scenario": self.scenario,
            "protocol": self.protocol,
            "index": self.index,
            "settings": dict(self.settings),
        }

    def row(self) -> Dict[str, object]:
        """Flat row for plan listings (settings inlined)."""
        return {
            "index": self.index,
            "kind": self.kind,
            "scenario": self.scenario,
            "protocol": self.protocol,
            **{key: value for key, value in self.settings.items() if value is not None},
        }


@dataclass(frozen=True)
class ExperimentPlan:
    """The explicit work list a spec expands into.

    A plan is cheap: it holds names and numbers, never models or solutions.
    ``filter``/``select``/``shard`` return new plans over a subset of the
    units; :func:`repro.api.engine.run` accepts any of them.
    """

    spec: ExperimentSpec
    units: Tuple[WorkUnit, ...]

    @property
    def count(self) -> int:
        """Number of work units."""
        return len(self.units)

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self):
        return iter(self.units)

    @property
    def scenario_names(self) -> List[str]:
        """Distinct scenario labels, in plan order."""
        return list(dict.fromkeys(unit.scenario for unit in self.units))

    @property
    def protocol_names(self) -> List[str]:
        """Distinct protocol names, in plan order."""
        return list(dict.fromkeys(unit.protocol for unit in self.units))

    def filter(self, predicate: Callable[[WorkUnit], bool]) -> "ExperimentPlan":
        """A new plan keeping only the units the predicate accepts."""
        return replace(
            self, units=tuple(unit for unit in self.units if predicate(unit))
        )

    def select(
        self, scenario: Optional[str] = None, protocol: Optional[str] = None
    ) -> "ExperimentPlan":
        """A new plan restricted to one scenario and/or protocol."""
        return self.filter(
            lambda unit: (scenario is None or unit.scenario == scenario)
            and (protocol is None or unit.protocol == protocol)
        )

    def shard(self, index: int, count: int) -> "ExperimentPlan":
        """Shard ``index`` of ``count`` round-robin shards of the plan.

        Raises:
            ConfigurationError: if ``count < 1`` or ``index`` is out of
                range.
        """
        if count < 1:
            raise ConfigurationError(f"shard count must be >= 1, got {count}")
        if not (0 <= index < count):
            raise ConfigurationError(
                f"shard index must lie in [0, {count}), got {index}"
            )
        return replace(self, units=self.units[index::count])

    def rows(self) -> List[Dict[str, object]]:
        """One flat row per unit, for plan listings and ``--plan-only``."""
        return [unit.row() for unit in self.units]

    def describe(self) -> str:
        """One-line summary, e.g. ``"suite: 16 unit(s), 8 scenario(s) × 2 protocol(s)"``."""
        return (
            f"{self.spec.kind}: {self.count} unit(s), "
            f"{len(self.scenario_names)} scenario(s) × "
            f"{len(self.protocol_names)} protocol(s)"
        )


# ---------------------------------------------------------------------- #
# Name resolution
# ---------------------------------------------------------------------- #


def resolve_scenario(
    ref: Optional[ScenarioRef], default: str = DEFAULT_SCENARIO
) -> Tuple[str, Scenario]:
    """Resolve a spec's scenario reference into ``(label, Scenario)``.

    A string is looked up in the preset registry; a mapping is built
    inline exactly like the CLI's scenario arguments (``depth``,
    ``density``, ``sampling_period``, ``radio``, ``burstiness``).

    Raises:
        ConfigurationError: on unknown preset or radio names.
    """
    if ref is None:
        ref = default
    if isinstance(ref, str):
        preset = scenario_preset(ref)
        return preset.name, preset.scenario
    scenario = Scenario(
        topology=RingTopology(
            depth=int(ref.get("depth", 5)), density=int(ref.get("density", 8))
        ),
        sampling_rate=1.0 / float(ref.get("sampling_period", 3600.0)),
        radio=radio_by_name(str(ref.get("radio", "cc2420"))),
    )
    burstiness = float(ref.get("burstiness", 1.0))
    if burstiness != 1.0:
        scenario = scenario.with_burstiness(burstiness)
    return CUSTOM_SCENARIO_LABEL, scenario


def _resolved_protocols(
    spec: ExperimentSpec, default: Tuple[str, ...] = ()
) -> List[str]:
    names = list(spec.protocols) or list(default)
    if not names:
        raise ConfigurationError(
            f"a {spec.kind!r} spec needs at least one protocol"
        )
    resolved = [canonical_name(name) for name in names]
    if len(set(resolved)) != len(resolved):
        raise ConfigurationError(f"duplicate protocols in spec: {resolved}")
    return resolved


def _requirement(spec: ExperimentSpec, name: str, default: float) -> float:
    if spec.requirements is None:
        return default
    value = getattr(spec.requirements, name)
    return default if value is None else value


def _preset_names(spec: ExperimentSpec) -> List[str]:
    """The scenario presets of a ``suite`` or ``campaign`` spec (default: all)."""
    names = list(spec.scenarios) or available_scenarios()
    for name in names:
        scenario_preset(name)  # raises ConfigurationError on unknown names
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate scenarios in spec: {names}")
    return names


def _check_simulable(protocols: Sequence[str]) -> None:
    """Refuse a protocol the simulator has no kernel for, before any work runs."""
    for protocol in protocols:
        if not has_behaviour_for(protocol_class(protocol)):
            raise ConfigurationError(
                f"protocol {protocol!r} has no simulated behaviour and cannot "
                f"be validated by simulation; protocols with a simulator: "
                f"{', '.join(available_mac_protocols())}"
            )


def _check_in_box(
    protocols: Sequence[str], scenario: Scenario, label: str, parameters: Mapping[str, float]
) -> None:
    """Refuse explicit ``simulation.parameters`` outside a protocol's
    parameter box (within its 1e-9 tolerance), before any work runs."""
    for protocol in protocols:
        space = create_protocol(protocol, scenario).parameter_space
        for parameter, value in zip(space, space.to_array(parameters)):
            if not parameter.contains(value):
                raise ConfigurationError(
                    f"simulation.parameters.{parameter.name} = {value:g} is outside "
                    f"{protocol}'s box [{parameter.lower:.6g}, {parameter.upper:.6g}] "
                    f"in scenario {label!r}"
                )


def _preset_units(
    spec: ExperimentSpec,
    kind: str,
    scenario_names: Sequence[str],
    protocols: Sequence[str],
    settings: Mapping[str, object],
) -> List[WorkUnit]:
    """One unit per (preset × protocol), scenario-major, each carrying the
    spec's requirement overrides after ``settings``."""
    requirements = spec.requirements
    overrides = {} if requirements is None else requirements.as_dict()
    settings = {
        **settings,
        **{name: value for name, value in overrides.items() if value is not None},
    }
    return [
        WorkUnit(
            kind=kind,
            scenario=scenario_name,
            protocol=protocol,
            index=index,
            settings=settings,
        )
        for index, (scenario_name, protocol) in enumerate(product(scenario_names, protocols))
    ]


# ---------------------------------------------------------------------- #
# Expansion, per workload kind
# ---------------------------------------------------------------------- #


def _plan_solve(spec: ExperimentSpec) -> List[WorkUnit]:
    label, _ = resolve_scenario(spec.scenario)
    protocols = _resolved_protocols(spec)
    settings = {
        "energy_budget": _requirement(spec, "energy_budget", DEFAULT_ENERGY_BUDGET),
        "max_delay": _requirement(spec, "max_delay", DEFAULT_MAX_DELAY),
        "grid_points": spec.solver.grid_points,
    }
    return [
        WorkUnit(
            kind="game-solve",
            scenario=label,
            protocol=protocol,
            index=index,
            settings=dict(settings),
        )
        for index, protocol in enumerate(protocols)
    ]


def _sweep_axis(spec: ExperimentSpec) -> Tuple[str, Tuple[float, ...]]:
    """The (parameter, values) axis of a sweep/figure spec."""
    if spec.kind == "sweep":
        if spec.sweep is None:
            raise ConfigurationError(
                "a 'sweep' spec needs a sweep axis "
                "(e.g. sweep={'parameter': 'max_delay', 'values': [...]})"
            )
        return spec.sweep.parameter, spec.sweep.values
    fixed_axis = "max_delay" if spec.kind == "figure1" else "energy_budget"
    default_values = (
        FIGURE_DELAY_BOUNDS if spec.kind == "figure1" else FIGURE_ENERGY_BUDGETS
    )
    if spec.sweep is None:
        return fixed_axis, tuple(default_values)
    if spec.sweep.parameter != fixed_axis:
        raise ConfigurationError(
            f"a {spec.kind!r} spec sweeps {fixed_axis!r}; "
            f"got sweep.parameter = {spec.sweep.parameter!r}"
        )
    return fixed_axis, spec.sweep.values


def _plan_sweep_family(spec: ExperimentSpec) -> List[WorkUnit]:
    label, _ = resolve_scenario(spec.scenario)
    if spec.kind == "sweep":
        protocols = _resolved_protocols(spec)
    else:
        protocols = _resolved_protocols(spec, default=tuple(PAPER_PROTOCOL_NAMES))
    parameter, values = _sweep_axis(spec)
    assert parameter in SWEEP_PARAMETERS  # normalized by SweepAxis / fixed above
    if parameter == "max_delay":
        fixed = {
            "energy_budget": _requirement(
                spec,
                "energy_budget",
                FIGURE_ENERGY_BUDGET_FIXED if spec.kind != "sweep" else DEFAULT_ENERGY_BUDGET,
            )
        }
    else:
        fixed = {
            "max_delay": _requirement(
                spec,
                "max_delay",
                FIGURE_MAX_DELAY_FIXED if spec.kind != "sweep" else DEFAULT_MAX_DELAY,
            )
        }
    units: List[WorkUnit] = []
    for protocol in protocols:
        for value in values:
            units.append(
                WorkUnit(
                    kind="game-solve",
                    scenario=label,
                    protocol=protocol,
                    index=len(units),
                    settings={
                        "parameter": parameter,
                        "value": float(value),
                        **fixed,
                        "grid_points": spec.solver.grid_points,
                    },
                )
            )
    return units


def _plan_suite(spec: ExperimentSpec) -> List[WorkUnit]:
    return _preset_units(
        spec,
        "game-solve",
        _preset_names(spec),
        _resolved_protocols(spec, default=tuple(available_protocols())),
        {"grid_points": spec.solver.grid_points},
    )


def _plan_validate(spec: ExperimentSpec) -> List[WorkUnit]:
    label, scenario = resolve_scenario(spec.scenario)
    protocols = _resolved_protocols(spec)
    _check_simulable(protocols)
    simulation = spec.simulation
    check_horizon(scenario, simulation.horizon, "simulation.horizon", label)
    if simulation.parameters is not None:
        _check_in_box(protocols, scenario, label, simulation.parameters)
    return [
        WorkUnit(
            kind="simulation",
            scenario=label,
            protocol=protocol,
            index=index,
            settings={
                "horizon": simulation.horizon,
                "seed": simulation.seed,
                "parameters": (
                    None
                    if simulation.parameters is None
                    else dict(simulation.parameters)
                ),
            },
        )
        for index, protocol in enumerate(protocols)
    ]


def _plan_campaign(spec: ExperimentSpec) -> List[WorkUnit]:
    scenario_names = _preset_names(spec)
    protocols = _resolved_protocols(spec, default=tuple(available_mac_protocols()))
    _check_simulable(protocols)
    campaign = spec.campaign
    for name in scenario_names:
        check_horizon(scenario_preset(name).scenario, campaign.horizon, "campaign.horizon", name)
    return _preset_units(
        spec,
        "campaign-cell",
        scenario_names,
        protocols,
        {
            "replications": campaign.replications,
            "base_seed": campaign.base_seed,
            "horizon": campaign.horizon,
            "grid_points": spec.solver.grid_points,
        },
    )


_EXPANDERS: Dict[str, Callable[[ExperimentSpec], List[WorkUnit]]] = {
    "solve": _plan_solve,
    "sweep": _plan_sweep_family,
    "figure1": _plan_sweep_family,
    "figure2": _plan_sweep_family,
    "suite": _plan_suite,
    "validate": _plan_validate,
    "campaign": _plan_campaign,
}


def plan(spec: ExperimentSpec) -> ExperimentPlan:
    """Expand a spec into its explicit work-unit list.

    Args:
        spec: The declarative experiment description.

    Returns:
        The :class:`ExperimentPlan`, with one unit per independent piece of
        work (game solve, simulation, or campaign cell).

    Raises:
        ConfigurationError: when the spec is incomplete for its kind or
            references unknown scenarios/protocols/radios.
    """
    return ExperimentPlan(spec=spec, units=tuple(_EXPANDERS[spec.kind](spec)))
