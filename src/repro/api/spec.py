"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the single programmable front door of the
library: it *describes* an experiment — which scenario(s), which
protocol(s), which workload kind, which requirement grid, which runtime
policy — without running anything.  Specs are plain data: loadable from a
dict, a JSON or TOML file, hashable (a canonical SHA-256 digest travels
with every result as provenance), and buildable fluently::

    spec = (
        ExperimentSpec.experiment("sweep")
        .with_protocols("xmac")
        .with_sweep("max_delay", [2.0, 4.0, 6.0])
        .with_runtime(workers=4)
    )

The lifecycle is ``spec → plan → run``: :func:`repro.api.plan.plan` expands
a spec into an inspectable list of work units (count/filter/shard before
spending compute), :func:`repro.api.engine.run` executes the plan through
the shared :mod:`repro.runtime` batch layer and returns a
:class:`~repro.api.results.ResultSet`.

Structural validation (types, known kinds, known keys) happens at spec
construction; *completeness* validation (a sweep spec needs a sweep axis,
campaign protocols must be simulable) happens at plan time, so fluent
construction can pass through intermediate states.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError

#: Every workload kind a spec may declare, in documentation order.
WORKLOAD_KINDS = (
    "solve",
    "sweep",
    "suite",
    "figure1",
    "figure2",
    "validate",
    "campaign",
)

#: The settings sections only some kinds read, with the kinds that read
#: each.  Every other kind ignores the section: the plan hands none of it to
#: a unit, and :meth:`ExperimentSpec.spec_hash` hashes it at its default.
SECTION_READERS: Mapping[str, Tuple[str, ...]] = {
    "simulation": ("validate",),
    "campaign": ("campaign",),
}

#: Requirement parameters a sweep axis may vary (canonical spelling).
SWEEP_PARAMETERS = ("max_delay", "energy_budget")

#: Accepted spellings of the sweep parameters (CLI uses kebab-case).
_SWEEP_ALIASES = {
    "max-delay": "max_delay",
    "energy-budget": "energy_budget",
}


def _require_number(owner: str, name: str, value: object, positive: bool = True) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(f"{owner}.{name} must be a number, got {value!r}")
    number = _convert(owner, name, value, float)
    if positive and number <= 0:
        raise ConfigurationError(f"{owner}.{name} must be positive, got {value!r}")
    return number


def _convert(owner: str, name: str, value: object, kind: type) -> object:
    """``value`` as a ``kind`` (``int`` or ``float``) spec field, or an error
    naming the field.

    Only JSON numbers qualify — never a boolean or a string.  An integer
    field takes integral values alone (``40.0`` reads as 40; ``30.9`` is
    refused, never truncated), and a float must be finite: Python's
    ``json`` reads ``NaN`` and ``Infinity``, and no spec field has a
    meaning for them.
    """
    label = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{owner}.{name} must be {label}, got {value!r}")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigurationError(f"{owner}.{name} must be {label}, got {value!r}")
        return int(value)
    try:
        converted = float(value)
    except OverflowError:
        raise ConfigurationError(f"{owner}.{name} must be finite, got {value!r}") from None
    if not math.isfinite(converted):
        raise ConfigurationError(f"{owner}.{name} must be finite, got {value!r}")
    return converted


def _sequence(owner: str, value: object) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{owner} must be a list, got {value!r}")
    return tuple(value)


def _names(owner: str, values: Sequence[object]) -> Tuple[str, ...]:
    """The stripped entries of a name list, each of which must be a string."""
    for index, value in enumerate(values):
        if not isinstance(value, str):
            raise ConfigurationError(f"{owner}[{index}] must be a string, got {value!r}")
    return tuple(value.strip() for value in values)


def _check_keys(owner: str, payload: object, known: Sequence[str]) -> None:
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"{owner} must be a mapping, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown {owner} key(s): {', '.join(unknown)}; "
            f"known keys: {', '.join(known)}"
        )


@dataclass(frozen=True)
class RuntimePolicy:
    """How a spec's work units are executed.

    Attributes:
        workers: Worker processes (``1`` = serial, ``0`` = one per CPU).
        cache: Whether results (game solves and simulations) are memoized:
            each distinct one computed once per run and, with a result
            store attached, remembered across runs.
    """

    workers: int = 1
    cache: bool = True

    def __post_init__(self) -> None:
        workers = _convert("runtime", "workers", self.workers, int)
        if workers < 0:
            raise ConfigurationError(f"runtime.workers must be >= 0, got {self.workers!r}")
        object.__setattr__(self, "workers", workers)
        if not isinstance(self.cache, bool):
            raise ConfigurationError(
                f"runtime.cache must be true or false, got {self.cache!r}"
            )

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RuntimePolicy":
        _check_keys("runtime", payload, ("workers", "cache"))
        return cls(
            workers=payload.get("workers", 1),  # type: ignore[arg-type]
            cache=payload.get("cache", True),  # type: ignore[arg-type]
        )

    def as_dict(self) -> Dict[str, object]:
        return {"workers": self.workers, "cache": self.cache}


#: The ``hybrid_solve`` keywords a spec's ``solver`` section may forward,
#: with the type each converts to.
SOLVER_OPTION_TYPES: Dict[str, type] = {
    "feasibility_tolerance": float,
}


@dataclass(frozen=True)
class SolverSettings:
    """Options forwarded to the hybrid game solver.

    Attributes:
        grid_points: Grid resolution per parameter dimension.
        options: Further ``hybrid_solve`` keywords, one of
            :data:`SOLVER_OPTION_TYPES` each (``feasibility_tolerance``).
    """

    grid_points: int = 60
    options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.grid_points, int) or self.grid_points < 2:
            raise ConfigurationError(
                f"solver.grid_points must be an integer >= 2, got {self.grid_points!r}"
            )
        _check_keys("solver", self.options, tuple(SOLVER_OPTION_TYPES))
        object.__setattr__(
            self,
            "options",
            {
                name: _convert("solver", name, value, SOLVER_OPTION_TYPES[name])
                for name, value in self.options.items()
            },
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SolverSettings":
        _check_keys("solver", payload, ("grid_points", *SOLVER_OPTION_TYPES))
        return cls(
            grid_points=_convert(
                "solver", "grid_points", payload.get("grid_points", cls.grid_points), int
            ),
            options={key: value for key, value in payload.items() if key != "grid_points"},
        )

    def as_dict(self) -> Dict[str, object]:
        return {"grid_points": self.grid_points, **dict(sorted(self.options.items()))}


@dataclass(frozen=True)
class SweepAxis:
    """The swept requirement of a ``sweep``/``figure`` workload.

    Attributes:
        parameter: ``"max_delay"`` or ``"energy_budget"`` (kebab-case
            spellings are normalized).
        values: The swept requirement values, in sweep order.
    """

    parameter: str
    values: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        parameter = _SWEEP_ALIASES.get(self.parameter, self.parameter)
        if parameter not in SWEEP_PARAMETERS:
            raise ConfigurationError(
                f"sweep.parameter must be one of {SWEEP_PARAMETERS}, "
                f"got {self.parameter!r}"
            )
        object.__setattr__(self, "parameter", parameter)
        values = tuple(
            _require_number("sweep", "values[]", value) for value in self.values
        )
        if not values:
            raise ConfigurationError("sweep.values must not be empty")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SweepAxis":
        _check_keys("sweep", payload, ("parameter", "values"))
        if "parameter" not in payload or "values" not in payload:
            raise ConfigurationError("sweep needs both 'parameter' and 'values'")
        return cls(
            parameter=str(payload["parameter"]),
            values=_sequence("sweep.values", payload["values"]),
        )

    def as_dict(self) -> Dict[str, object]:
        return {"parameter": self.parameter, "values": list(self.values)}


@dataclass(frozen=True)
class RequirementOverrides:
    """Application requirements of a spec (kind-specific defaults apply).

    For ``solve``/``sweep``/``figure`` kinds these are the game's
    ``(Ebudget, Lmax)``; for ``suite`` they *override* every preset's
    suggested requirements (``None`` keeps the preset's value).
    """

    energy_budget: Optional[float] = None
    max_delay: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("energy_budget", "max_delay"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(
                    self, name, _require_number("requirements", name, value)
                )

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RequirementOverrides":
        _check_keys("requirements", payload, ("energy_budget", "max_delay"))
        return cls(
            energy_budget=payload.get("energy_budget"),  # type: ignore[arg-type]
            max_delay=payload.get("max_delay"),  # type: ignore[arg-type]
        )

    def as_dict(self) -> Dict[str, object]:
        return {"energy_budget": self.energy_budget, "max_delay": self.max_delay}


@dataclass(frozen=True)
class SimulationSettings:
    """Settings of the ``validate`` workload's packet-level simulation.

    Attributes:
        horizon: Simulated duration in seconds.
        seed: Simulation seed, an integer >= 0.
        parameters: Explicit parameter vector to validate at; ``None`` uses
            the midpoint of the protocol's parameter space.
    """

    horizon: float = 2000.0
    seed: int = 1
    parameters: Optional[Mapping[str, float]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "horizon", _require_number("simulation", "horizon", self.horizon)
        )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError(
                f"simulation.seed must be an integer, got {self.seed!r}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"simulation.seed must be >= 0, got {self.seed!r}")
        if self.parameters is not None:
            if not isinstance(self.parameters, Mapping):
                raise ConfigurationError(
                    f"simulation.parameters must be a mapping, got {self.parameters!r}"
                )
            object.__setattr__(
                self,
                "parameters",
                {
                    str(key): _require_number("simulation.parameters", str(key), value)
                    for key, value in dict(self.parameters).items()
                },
            )

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SimulationSettings":
        _check_keys("simulation", payload, ("horizon", "seed", "parameters"))
        return cls(
            horizon=_convert("simulation", "horizon", payload.get("horizon", cls.horizon), float),
            seed=_convert("simulation", "seed", payload.get("seed", cls.seed), int),
            parameters=payload.get("parameters"),  # type: ignore[arg-type]
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "horizon": self.horizon,
            "seed": self.seed,
            "parameters": None if self.parameters is None else dict(self.parameters),
        }


@dataclass(frozen=True)
class CampaignSettings:
    """Settings of the ``campaign`` workload (Monte-Carlo validation).

    The one definition of a campaign's settings, each checked here against
    its range; what depends on the scenarios and protocols (known names,
    simulability, the horizon's event budget) is checked at plan time.

    Attributes:
        replications: Independently seeded simulation runs per cell (>= 1).
        base_seed: Base seed every replication seed is hashed from (any
            integer).
        horizon: Simulated duration of each replication, in seconds (> 0).
        confidence: Two-sided confidence level of the Student-t intervals,
            in (0, 1).
        energy_tolerance: Allowed relative error of the analytical energy
            against the simulated mean (> 0).
        delay_tolerance: Allowed relative error of the delay (> 0).
        min_delivery_ratio: Floor on the mean delivery ratio, in [0, 1].
    """

    replications: int = 5
    base_seed: int = 1
    horizon: float = 1500.0
    confidence: float = 0.95
    energy_tolerance: float = 0.35
    delay_tolerance: float = 0.6
    min_delivery_ratio: float = 0.9

    def __post_init__(self) -> None:
        # Checks only: the fields keep the values given (their spelling is
        # part of the spec hash).
        value = {
            f.name: _convert("campaign", f.name, getattr(self, f.name), type(f.default))
            for f in fields(self)
        }
        if value["replications"] < 1:
            raise ConfigurationError(
                f"campaign.replications must be >= 1, got {self.replications!r}"
            )
        for name in ("horizon", "energy_tolerance", "delay_tolerance"):
            if value[name] <= 0:
                raise ConfigurationError(
                    f"campaign.{name} must be positive, got {getattr(self, name)!r}"
                )
        if not 0.0 < value["confidence"] < 1.0:
            raise ConfigurationError(
                f"campaign.confidence must lie in (0, 1), got {self.confidence!r}"
            )
        if not 0.0 <= value["min_delivery_ratio"] <= 1.0:
            raise ConfigurationError(
                f"campaign.min_delivery_ratio must lie in [0, 1], "
                f"got {self.min_delivery_ratio!r}"
            )

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CampaignSettings":
        _check_keys("campaign", payload, tuple(f.name for f in fields(cls)))
        return cls(
            **{
                f.name: _convert(
                    "campaign", f.name, payload.get(f.name, f.default), type(f.default)
                )
                for f in fields(cls)
            }
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "replications": self.replications,
            "base_seed": self.base_seed,
            "horizon": self.horizon,
            "confidence": self.confidence,
            "energy_tolerance": self.energy_tolerance,
            "delay_tolerance": self.delay_tolerance,
            "min_delivery_ratio": self.min_delivery_ratio,
        }


#: Keys an inline scenario mapping may carry (mirrors the CLI's scenario
#: arguments; ``sampling_period`` is seconds per sample).
_SCENARIO_KEYS = ("depth", "density", "sampling_period", "radio", "burstiness")

#: A scenario reference: a preset name or an inline scenario mapping.
ScenarioRef = Union[str, Mapping[str, object]]


def _normalize_scenario(ref: Optional[ScenarioRef]) -> Optional[ScenarioRef]:
    if ref is None:
        return None
    if isinstance(ref, str):
        name = ref.strip().lower()
        if not name:
            raise ConfigurationError("scenario name must be non-empty")
        return name
    if isinstance(ref, Mapping):
        _check_keys("scenario", ref, _SCENARIO_KEYS)
        for name in ("depth", "density", "sampling_period", "burstiness"):
            if name in ref:
                _require_number("scenario", name, ref[name])
        for name in ("depth", "density"):
            if name in ref:
                _convert("scenario", name, ref[name], int)
        if not isinstance(ref.get("radio", ""), str):
            raise ConfigurationError(f"scenario.radio must be a name, got {ref['radio']!r}")
        return dict(ref)
    raise ConfigurationError(
        f"scenario must be a preset name or a mapping, got {type(ref).__name__}"
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment: *what* to run, not *how*.

    Attributes:
        kind: Workload kind, one of :data:`WORKLOAD_KINDS`.
        name: Free-form experiment label (carried into results).
        scenario: Scenario of the single-environment kinds (``solve``,
            ``sweep``, ``figure1``, ``figure2``, ``validate``): a preset
            name or an inline mapping with ``depth``/``density``/
            ``sampling_period``/``radio``/``burstiness``.  ``None`` uses the
            kind's default (the paper's environment).
        scenarios: Scenario preset names of the multi-environment kinds
            (``suite``, ``campaign``); empty means the kind's default set.
        protocols: Protocol names (resolved through the protocol registry
            at plan time, so user-registered protocols work); empty means
            the kind's default set.
        requirements: Application requirements / overrides.
        sweep: Swept requirement axis (``sweep`` kind; for the figure kinds
            it may override the paper's swept values).
        simulation: ``validate`` settings.
        campaign: ``campaign`` settings.
        solver: Game solver settings.
        runtime: Execution policy (workers, cache).
    """

    kind: str
    name: str = ""
    scenario: Optional[ScenarioRef] = None
    scenarios: Tuple[str, ...] = ()
    protocols: Tuple[str, ...] = ()
    requirements: Optional[RequirementOverrides] = None
    sweep: Optional[SweepAxis] = None
    simulation: SimulationSettings = field(default_factory=SimulationSettings)
    campaign: CampaignSettings = field(default_factory=CampaignSettings)
    solver: SolverSettings = field(default_factory=SolverSettings)
    runtime: RuntimePolicy = field(default_factory=RuntimePolicy)

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; "
                f"known kinds: {', '.join(WORKLOAD_KINDS)}"
            )
        if not isinstance(self.name, str):
            raise ConfigurationError(f"name must be a string, got {self.name!r}")
        object.__setattr__(self, "scenario", _normalize_scenario(self.scenario))
        object.__setattr__(
            self, "scenarios", tuple(name.lower() for name in _names("scenarios", self.scenarios))
        )
        object.__setattr__(self, "protocols", _names("protocols", self.protocols))

    # ------------------------------------------------------------------ #
    # Fluent construction
    # ------------------------------------------------------------------ #

    @classmethod
    def experiment(cls, kind: str, name: str = "") -> "ExperimentSpec":
        """Start a fluent spec of the given workload kind."""
        return cls(kind=kind, name=name)

    def with_scenario(self, scenario: ScenarioRef) -> "ExperimentSpec":
        """Set the single-environment scenario (preset name or mapping)."""
        return replace(self, scenario=scenario)

    def with_scenarios(self, *names: str) -> "ExperimentSpec":
        """Set the scenario preset names of a suite/campaign."""
        return replace(self, scenarios=tuple(names))

    def with_protocols(self, *names: str) -> "ExperimentSpec":
        """Set the protocol names."""
        return replace(self, protocols=tuple(names))

    def with_requirements(
        self,
        energy_budget: Optional[float] = None,
        max_delay: Optional[float] = None,
    ) -> "ExperimentSpec":
        """Update the application requirements (or suite overrides).

        Like the other ``with_*`` builders this *merges*: an argument left
        as ``None`` keeps the previously set value, so
        ``.with_requirements(energy_budget=...).with_requirements(max_delay=...)``
        carries both.
        """
        current = self.requirements or RequirementOverrides()
        return replace(
            self,
            requirements=RequirementOverrides(
                energy_budget=(
                    current.energy_budget if energy_budget is None else energy_budget
                ),
                max_delay=current.max_delay if max_delay is None else max_delay,
            ),
        )

    def with_sweep(self, parameter: str, values: Iterable[float]) -> "ExperimentSpec":
        """Set the swept requirement axis."""
        return replace(self, sweep=SweepAxis(parameter=parameter, values=tuple(values)))

    def with_simulation(self, **settings: object) -> "ExperimentSpec":
        """Update the ``validate`` simulation settings."""
        return replace(self, simulation=replace(self.simulation, **settings))

    def with_campaign(self, **settings: object) -> "ExperimentSpec":
        """Update the ``campaign`` settings."""
        return replace(self, campaign=replace(self.campaign, **settings))

    def with_solver(
        self, grid_points: Optional[int] = None, **options: object
    ) -> "ExperimentSpec":
        """Update the game solver settings (``options``: :data:`SOLVER_OPTION_TYPES`)."""
        current = self.solver
        return replace(
            self,
            solver=SolverSettings(
                grid_points=current.grid_points if grid_points is None else grid_points,
                options={**current.options, **options},
            ),
        )

    def with_runtime(self, **settings: object) -> "ExperimentSpec":
        """Update the runtime policy (``workers``, ``cache``)."""
        return replace(self, runtime=replace(self.runtime, **settings))

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExperimentSpec":
        """Build a spec from a plain mapping (the JSON/TOML document shape).

        Raises:
            ConfigurationError: on unknown keys, unknown kinds, or malformed
                sections — with a message naming the offending key.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"spec must be a mapping, got {type(payload).__name__}"
            )
        known = tuple(spec_field.name for spec_field in fields(cls))
        _check_keys("spec", payload, known)
        if "kind" not in payload:
            raise ConfigurationError(
                f"spec needs a 'kind'; known kinds: {', '.join(WORKLOAD_KINDS)}"
            )
        kwargs: Dict[str, object] = {
            "kind": str(payload["kind"]),
            "name": payload.get("name", ""),
        }
        if payload.get("scenario") is not None:
            kwargs["scenario"] = payload["scenario"]
        if payload.get("scenarios"):
            kwargs["scenarios"] = _sequence("scenarios", payload["scenarios"])
        if payload.get("protocols"):
            kwargs["protocols"] = _sequence("protocols", payload["protocols"])
        if payload.get("requirements") is not None:
            kwargs["requirements"] = RequirementOverrides.from_dict(
                payload["requirements"]  # type: ignore[arg-type]
            )
        if payload.get("sweep") is not None:
            kwargs["sweep"] = SweepAxis.from_dict(payload["sweep"])  # type: ignore[arg-type]
        if payload.get("simulation") is not None:
            kwargs["simulation"] = SimulationSettings.from_dict(
                payload["simulation"]  # type: ignore[arg-type]
            )
        if payload.get("campaign") is not None:
            kwargs["campaign"] = CampaignSettings.from_dict(
                payload["campaign"]  # type: ignore[arg-type]
            )
        if payload.get("solver") is not None:
            kwargs["solver"] = SolverSettings.from_dict(
                payload["solver"]  # type: ignore[arg-type]
            )
        if payload.get("runtime") is not None:
            kwargs["runtime"] = RuntimePolicy.from_dict(
                payload["runtime"]  # type: ignore[arg-type]
            )
        return cls(**kwargs)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a JSON document into a spec."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid JSON spec: {error}") from error
        return cls.from_dict(payload)

    @classmethod
    def from_toml(cls, text: str) -> "ExperimentSpec":
        """Parse a TOML document into a spec (needs Python 3.11+)."""
        try:
            import tomllib
        except ModuleNotFoundError as error:  # pragma: no cover - py<3.11 only
            raise ConfigurationError(
                "TOML specs need Python 3.11+ (tomllib); use JSON instead"
            ) from error
        try:
            payload = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise ConfigurationError(f"invalid TOML spec: {error}") from error
        return cls.from_dict(payload)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Load a spec from a ``.json`` or ``.toml`` file.

        Raises:
            ConfigurationError: when the file is missing, has an unsupported
                suffix, or does not parse into a valid spec.
        """
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"spec file not found: {path}")
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() == ".json":
            return cls.from_json(text)
        if path.suffix.lower() == ".toml":
            return cls.from_toml(text)
        raise ConfigurationError(
            f"unsupported spec file type {path.suffix!r} (use .json or .toml)"
        )

    def to_dict(self) -> Dict[str, object]:
        """Canonical, JSON-ready representation (the hash input)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "scenario": (
                dict(self.scenario)
                if isinstance(self.scenario, Mapping)
                else self.scenario
            ),
            "scenarios": list(self.scenarios),
            "protocols": list(self.protocols),
            "requirements": (
                None if self.requirements is None else self.requirements.as_dict()
            ),
            "sweep": None if self.sweep is None else self.sweep.as_dict(),
            "simulation": self.simulation.as_dict(),
            "campaign": self.campaign.as_dict(),
            "solver": self.solver.as_dict(),
            "runtime": self.runtime.as_dict(),
        }

    def to_json(self, indent: int = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def spec_hash(self) -> str:
        """SHA-256 of the canonical JSON form — the result's provenance tag.

        The runtime policy is *excluded*: a spec run with ``--workers 4``
        carries the same provenance as the serial run it is bit-identical
        to.  A section the kind does not read (:data:`SECTION_READERS`)
        is hashed at its default, so it cannot tell two specs of the same
        work apart (the service keys its jobs by this hash).
        """
        payload = self.to_dict()
        payload.pop("runtime")
        for section, kinds in SECTION_READERS.items():
            if self.kind not in kinds:
                payload[section] = type(getattr(self, section))().as_dict()
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
