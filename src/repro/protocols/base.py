"""Abstract base classes for duty-cycled MAC analytical models.

The paper requires, for every protocol, two system-wide cost functions of the
tunable parameter vector ``X``:

* ``E(X)`` — the energy consumption of the most loaded node (ring 1), broken
  down into carrier sensing, transmission, reception, overhearing and
  synchronization, exactly the decomposition written in Section 2;
* ``L(X)`` — the end-to-end delay of the node farthest from the sink
  (ring ``D``), i.e. the sum of per-hop latencies along its path.

A model takes one of two contracts, chosen by the class it derives from.
A :class:`DutyCycledMACModel` subclass writes the scalar methods (per-ring
energy breakdown, per-hop latency, duty cycle, capacity margin), and the
batched ``.many`` methods evaluate a grid row by row through them.  A
:class:`ClosedFormMACModel` subclass — every built-in protocol — states each
quantity once, as an expression that both the point and the grid path run.
Both share the aggregation logic, parameter coercion and feasibility helpers
of :class:`DutyCycledMACModel`.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.core.parameters import ParameterSpace
from repro.exceptions import ConfigurationError
from repro.network.traffic import RingTraffic, TrafficModel
from repro.scenario import Scenario

#: A parameter vector may be given as a mapping, a sequence or a numpy array.
ParameterVector = Union[Mapping[str, float], Sequence[float], np.ndarray]

#: What a closed-form expression evaluates to: a Python float on the point
#: path, a float64 column (one entry per grid row) on the grid path.
Value = Union[float, np.ndarray]

#: The argument ``x`` of a closed-form expression: the parameter values in
#: parameter-space order, each a :data:`Value`.
Values = Tuple[Value, ...]


def minimum(a: Value, b: Value) -> Value:
    """The bound ``a`` clipping the expression ``b``: ``min`` on floats, or
    ``np.minimum`` when ``b`` is a column."""
    return np.minimum(a, b) if isinstance(b, np.ndarray) else min(a, b)


def maximum(a: Value, b: Value) -> Value:
    """Like :func:`minimum`, with ``max`` and ``np.maximum``."""
    return np.maximum(a, b) if isinstance(b, np.ndarray) else max(a, b)


def _left_sum(values: Sequence[Value]) -> Value:
    """Add ``values`` one at a time, left to right.

    Every end-to-end delay folds its hops through here, and the grid path
    adds the energy terms with it.  ``sum()`` is not this fold on every
    Python: from CPython 3.12 on it compensates the rounding of floats
    (Neumaier), so its last bits could differ from a grid path that adds
    whole columns one at a time.
    """
    total = values[0]
    for value in values[1:]:
        total = total + value
    return total


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-node energy consumption split by cause, in joules per second.

    The attributes follow the decomposition in Section 2 of the paper:
    ``E_n = E_cs + E_tx + E_rx + E_ovr + E_stx + E_srx``.
    """

    carrier_sense: float
    transmit: float
    receive: float
    overhear: float
    sync_transmit: float = 0.0
    sync_receive: float = 0.0
    sleep: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "carrier_sense",
            "transmit",
            "receive",
            "overhear",
            "sync_transmit",
            "sync_receive",
            "sleep",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigurationError(
                    f"EnergyBreakdown.{name} must be a finite non-negative number, got {value!r}"
                )

    @property
    def total(self) -> float:
        """Total per-node energy consumption in joules per second."""
        return (
            self.carrier_sense
            + self.transmit
            + self.receive
            + self.overhear
            + self.sync_transmit
            + self.sync_receive
            + self.sleep
        )

    def as_dict(self) -> Dict[str, float]:
        """Return the breakdown as a dictionary including the total."""
        return {
            "carrier_sense": self.carrier_sense,
            "transmit": self.transmit,
            "receive": self.receive,
            "overhear": self.overhear,
            "sync_transmit": self.sync_transmit,
            "sync_receive": self.sync_receive,
            "sleep": self.sleep,
            "total": self.total,
        }


class DutyCycledMACModel(abc.ABC):
    """Analytical energy/latency model of one duty-cycled MAC protocol.

    Args:
        scenario: The shared evaluation environment (topology, traffic,
            radio, frame sizes).

    Subclasses must define :attr:`name`, :attr:`family`, and implement
    :meth:`parameter_space`, :meth:`energy_breakdown`, :meth:`hop_latency`,
    :meth:`duty_cycle` and :meth:`capacity_margin`.
    """

    #: Short protocol identifier, e.g. ``"X-MAC"``.
    name: str = "abstract"
    #: Protocol family, e.g. ``"preamble-sampling"``.
    family: str = "abstract"

    #: Maximum admissible channel utilization of the bottleneck node.  The
    #: traffic model assumes an unsaturated network; keeping the busy
    #: fraction below this threshold keeps that assumption honest.
    max_utilization: float = 0.8

    def __init__(self, scenario: Scenario) -> None:
        if not isinstance(scenario, Scenario):
            raise ConfigurationError(
                f"scenario must be a Scenario, got {type(scenario).__name__}"
            )
        self._scenario = scenario
        self._traffic = scenario.traffic

    # ------------------------------------------------------------------ #
    # Environment access
    # ------------------------------------------------------------------ #

    @property
    def scenario(self) -> Scenario:
        """The evaluation environment this model is bound to."""
        return self._scenario

    @property
    def traffic(self) -> TrafficModel:
        """The traffic model induced by the scenario."""
        return self._traffic

    @cached_property
    def traffic_by_ring(self) -> Dict[int, RingTraffic]:
        """The :class:`RingTraffic` of every ring, computed once per model.

        The rates depend on the scenario only, never on the parameters, yet
        every energy, duty-cycle and capacity evaluation reads them.  A
        ``cached_property`` memo stays out of the model's store identity
        (see :func:`repro.runtime.keys.model_fingerprint`).
        """
        return self._traffic.all_rings()

    def ring_traffic(self, ring: int) -> RingTraffic:
        """The traffic of one ring, read from :attr:`traffic_by_ring`.

        Raises:
            ConfigurationError: if ``ring`` is not an integer ring index,
                exactly as :meth:`TrafficModel.ring_traffic` does.
        """
        if isinstance(ring, int) and ring in self.traffic_by_ring:
            return self.traffic_by_ring[ring]
        return self._traffic.ring_traffic(ring)

    # ------------------------------------------------------------------ #
    # Abstract protocol-specific pieces
    # ------------------------------------------------------------------ #

    @property
    @abc.abstractmethod
    def parameter_space(self) -> ParameterSpace:
        """The box of admissible tunable parameters ``Theta``."""

    @abc.abstractmethod
    def energy_breakdown(self, params: ParameterVector, ring: int) -> EnergyBreakdown:
        """Per-node energy breakdown (J/s) for a node in the given ring."""

    @abc.abstractmethod
    def hop_latency(self, params: ParameterVector, ring: int) -> float:
        """Expected one-hop forwarding latency (seconds) at the given ring.

        ``ring`` is the ring of the *transmitting* node, i.e. the latency of
        the link from ring ``d`` toward ring ``d - 1``.
        """

    @abc.abstractmethod
    def duty_cycle(self, params: ParameterVector, ring: int) -> float:
        """Fraction of time the radio of a ring-``d`` node is awake (0..1]."""

    @abc.abstractmethod
    def capacity_margin(self, params: ParameterVector) -> float:
        """Slack of the bottleneck capacity constraint.

        Returns a value that is ``>= 0`` when the configuration keeps the
        most loaded node's channel utilization below
        :attr:`max_utilization`, and negative (by the amount of violation)
        otherwise.
        """

    # ------------------------------------------------------------------ #
    # Aggregation (shared by all protocols)
    # ------------------------------------------------------------------ #

    def node_energy(self, params: ParameterVector, ring: int) -> float:
        """Total per-node energy (J/s) for a node in the given ring."""
        return self.energy_breakdown(params, ring).total

    def system_energy(self, params: ParameterVector) -> float:
        """System-wide energy ``E(X) = max_n E_n`` (J/s).

        With the ring traffic model the maximum is attained at ring 1 (the
        nodes that relay everything), but the maximum is computed over all
        rings to keep the definition faithful to the paper.
        """
        values = self.ring_energies(params)
        return max(values.values())

    def ring_energies(self, params: ParameterVector) -> Dict[int, float]:
        """Per-ring node energy (J/s), keyed by ring index."""
        params = self.coerce(params)
        return {
            ring: self.node_energy(params, ring)
            for ring in self._scenario.topology.rings()
        }

    def e2e_latency(self, params: ParameterVector, source_ring: int | None = None) -> float:
        """End-to-end delay (seconds) of a packet generated at ``source_ring``.

        Defaults to the farthest ring ``D``.  The delay is the sum of the
        per-hop latencies along the shortest path ``d, d-1, …, 1``, added
        left to right from ring 1.
        """
        params = self.coerce(params)
        hops = self._hop_count(source_ring)
        return _left_sum([self.hop_latency(params, ring) for ring in range(1, hops + 1)])

    def _hop_count(self, source_ring: int | None) -> int:
        """Hops from ``source_ring`` (default: the farthest ring) to the sink."""
        depth = self._scenario.depth
        if source_ring is None:
            return depth
        if not (1 <= source_ring <= depth):
            raise ConfigurationError(
                f"source_ring must be in [1, {depth}], got {source_ring!r}"
            )
        return source_ring

    def system_latency(self, params: ParameterVector) -> float:
        """System-wide delay ``L(X) = max_n L_n`` (seconds): the ring-``D`` delay."""
        return self.e2e_latency(params, self._scenario.depth)

    def lifetime_days(self, params: ParameterVector, battery_joules: float = 2.0 * 3600 * 3) -> float:
        """Estimated bottleneck-node lifetime in days for a given battery.

        Defaults to a pair of AA cells (~2 Ah at 3 V ≈ 21.6 kJ); only used by
        examples and reports, never by the optimization itself.
        """
        if battery_joules <= 0:
            raise ConfigurationError("battery_joules must be positive")
        power = self.system_energy(params)
        if power <= 0:
            raise ConfigurationError("system energy must be positive")
        return battery_joules / power / 86400.0

    # ------------------------------------------------------------------ #
    # Constraints and feasibility
    # ------------------------------------------------------------------ #

    def constraint_margins(self, params: ParameterVector) -> List[float]:
        """All inequality-constraint slacks (``>= 0`` means satisfied).

        By default this is the capacity margin plus the box-bound margins;
        subclasses can extend it.
        """
        params_array = self.coerce_array(params)
        space = self.parameter_space
        margins: List[float] = [self.capacity_margin(params)]
        margins.extend(float(m) for m in (params_array - space.lower_bounds))
        margins.extend(float(m) for m in (space.upper_bounds - params_array))
        return margins

    def is_admissible(self, params: ParameterVector, tolerance: float = 1e-9) -> bool:
        """Whether a parameter vector satisfies all protocol constraints."""
        return all(margin >= -tolerance for margin in self.constraint_margins(params))

    # ------------------------------------------------------------------ #
    # Parameter coercion helpers
    # ------------------------------------------------------------------ #

    def coerce(self, params: ParameterVector) -> Dict[str, float]:
        """Normalize any accepted parameter representation to a dictionary."""
        space = self.parameter_space
        if isinstance(params, Mapping):
            return space.checked_dict(params)
        return space.to_dict(params)

    def coerce_array(self, params: ParameterVector) -> np.ndarray:
        """Normalize any accepted parameter representation to a solver array."""
        space = self.parameter_space
        if isinstance(params, Mapping):
            return space.to_array(params)
        array = np.asarray(params, dtype=float).ravel()
        if array.shape[0] != space.dimension:
            raise ConfigurationError(
                f"{self.name}: expected {space.dimension} parameters, got {array.shape[0]}"
            )
        return array

    def coerce_grid(self, grid: np.ndarray) -> np.ndarray:
        """Normalize a batch of parameter vectors to a ``(n, dimension)`` array.

        Args:
            grid: A 2-D array of shape ``(n, dimension)`` (one solver-ordered
                parameter vector per row, e.g. the output of
                :meth:`~repro.core.parameters.ParameterSpace.grid`), or a 1-D
                array of length ``dimension`` treated as a single row.

        Returns:
            A float ``(n, dimension)`` array.

        Raises:
            ConfigurationError: if the trailing dimension does not match the
                parameter space.
        """
        array = np.asarray(grid, dtype=float)
        dimension = self.parameter_space.dimension
        if array.ndim == 1:
            array = array.reshape(1, -1)
        if array.ndim != 2 or array.shape[1] != dimension:
            raise ConfigurationError(
                f"{self.name}: expected a (n, {dimension}) parameter grid, "
                f"got shape {np.asarray(grid).shape}"
            )
        return array

    # ------------------------------------------------------------------ #
    # Batched (vectorized) evaluation
    # ------------------------------------------------------------------ #
    #
    # The batched methods evaluate whole parameter grids at once and are the
    # hot path of the grid solver.  The base implementations fall back to
    # the scalar methods row by row, so any user-defined protocol is
    # automatically correct; ClosedFormMACModel
    # runs its expressions on whole columns instead, which is *bit-identical*
    # to the scalar path (the same operations in the same order on float64).
    # Unlike the scalar path, the batched path does not validate each
    # point's energy breakdown — callers are expected to stay inside the
    # parameter box, where the breakdowns are well-formed by construction.

    def energy_many(self, grid: np.ndarray) -> np.ndarray:
        """System energy ``E(X)`` (J/s) for every row of a parameter grid.

        Args:
            grid: ``(n, dimension)`` array of solver-ordered parameter rows.

        Returns:
            ``(n,)`` array with ``E(X)`` per row, bit-identical to calling
            :meth:`system_energy` on each row.
        """
        grid = self.coerce_grid(grid)
        return np.array([self.system_energy(row) for row in grid], dtype=float)

    def latency_many(self, grid: np.ndarray) -> np.ndarray:
        """System delay ``L(X)`` (seconds) for every row of a parameter grid.

        Args:
            grid: ``(n, dimension)`` array of solver-ordered parameter rows.

        Returns:
            ``(n,)`` array with ``L(X)`` per row, bit-identical to calling
            :meth:`system_latency` on each row.
        """
        grid = self.coerce_grid(grid)
        return np.array([self.system_latency(row) for row in grid], dtype=float)

    def capacity_margin_many(self, grid: np.ndarray) -> np.ndarray:
        """Capacity-constraint slack for every row of a parameter grid.

        Args:
            grid: ``(n, dimension)`` array of solver-ordered parameter rows.

        Returns:
            ``(n,)`` array with :meth:`capacity_margin` per row.
        """
        grid = self.coerce_grid(grid)
        return np.array([self.capacity_margin(row) for row in grid], dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(scenario={self._scenario.describe()})"


class ClosedFormMACModel(DutyCycledMACModel):
    """A model that states each quantity once, as a closed-form expression.

    Every expression takes ``x``, the parameter values in parameter-space
    order: Python floats when a scalar method is called with one point,
    float64 columns when a ``.many`` method is called with a grid.  Written
    with arithmetic and :func:`minimum`/:func:`maximum` only, an expression
    computes the same bits on both paths, so this class derives every scalar
    method and its ``.many`` twin from five of them: :meth:`energy_terms`,
    :meth:`awake_fraction`, :meth:`hop_time`, :meth:`initial_wait` and
    :meth:`bottleneck_load`.

    It clips ``duty = min(1, awake)``, charges ``sleep = P_sleep ·
    max(0, 1 − duty)``, sums the terms in :attr:`EnergyBreakdown.total`'s
    order, takes the max over rings, adds the hops left to right after
    :meth:`initial_wait`, and takes the capacity margin as
    ``max_utilization − load``.  The scalar path stays on Python floats and
    coerces its parameters once per call.  An expression's ``traffic`` is
    one ring's :class:`RingTraffic` on the point path; on the grid path it
    holds every ring at once, each rate a ``(rings, 1)`` column, so one
    evaluation broadcasts over rings × grid rows.
    """

    # ------------------------------------------------------------------ #
    # The expressions a subclass states
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def energy_terms(self, x: Values, traffic: RingTraffic) -> Values:
        """The six :class:`EnergyBreakdown` terms before sleep, in field order (J/s)."""

    @abc.abstractmethod
    def awake_fraction(self, x: Values, traffic: RingTraffic) -> Value:
        """Fraction of time the radio is awake, before it is clipped to 1."""

    @abc.abstractmethod
    def hop_time(self, x: Values) -> Value:
        """Expected one-hop forwarding latency (seconds), the same at every ring."""

    def initial_wait(self, x: Values) -> Value:
        """Wait (seconds) charged once per packet before its first hop."""
        del x
        return 0.0

    @abc.abstractmethod
    def bottleneck_load(self, x: Values, traffic: RingTraffic) -> Value:
        """Channel load of the bottleneck ring; the margin is
        :attr:`max_utilization` minus this load."""

    # Both paths, derived from the expressions.

    def _point(self, params: ParameterVector) -> Tuple[float, ...]:
        return tuple(self.coerce(params).values())

    def _columns(self, grid: np.ndarray) -> Values:
        return tuple(self.coerce_grid(grid).T)

    def _duty(self, x: Values, traffic: RingTraffic) -> Value:
        return minimum(1.0, self.awake_fraction(x, traffic))

    def _sleep(self, x: Values, traffic: RingTraffic) -> Value:
        return self._scenario.radio.power_sleep * maximum(0.0, 1.0 - self._duty(x, traffic))

    def _breakdown(self, x: Values, ring: int) -> EnergyBreakdown:
        traffic = self.ring_traffic(ring)
        return EnergyBreakdown(*self.energy_terms(x, traffic), sleep=self._sleep(x, traffic))

    def _latency(self, x: Values, hops: int) -> Value:
        return self.initial_wait(x) + _left_sum([self.hop_time(x)] * hops)

    def _margin(self, x: Values) -> Value:
        traffic = self.ring_traffic(self._scenario.topology.bottleneck_ring)
        return self.max_utilization - self.bottleneck_load(x, traffic)

    def energy_breakdown(self, params: ParameterVector, ring: int) -> EnergyBreakdown:
        return self._breakdown(self._point(params), ring)

    def system_energy(self, params: ParameterVector) -> float:
        x = self._point(params)
        return max(self._breakdown(x, ring).total for ring in self._scenario.topology.rings())

    def duty_cycle(self, params: ParameterVector, ring: int) -> float:
        return self._duty(self._point(params), self.ring_traffic(ring))

    def hop_latency(self, params: ParameterVector, ring: int) -> float:
        x = self._point(params)
        self.ring_traffic(ring)  # refuses a ring the topology lacks, as duty_cycle does
        return self.hop_time(x)

    def e2e_latency(self, params: ParameterVector, source_ring: int | None = None) -> float:
        return self._latency(self._point(params), self._hop_count(source_ring))

    def capacity_margin(self, params: ParameterVector) -> float:
        return self._margin(self._point(params))

    @cached_property
    def _ring_columns(self) -> SimpleNamespace:
        """Every ring's traffic, each :class:`RingTraffic` field a ``(rings, 1)``
        column (a memo outside the store identity, like :attr:`traffic_by_ring`)."""
        rings = self.traffic_by_ring.values()
        return SimpleNamespace(
            **{
                field.name: np.array([[getattr(traffic, field.name)] for traffic in rings])
                for field in fields(RingTraffic)
            }
        )

    def energy_many(self, grid: np.ndarray) -> np.ndarray:
        x = self._columns(grid)
        traffic = self._ring_columns
        # The six terms and then sleep, added as EnergyBreakdown.total adds them.
        total = _left_sum((*self.energy_terms(x, traffic), self._sleep(x, traffic)))
        return np.broadcast_to(total, (len(self.traffic_by_ring), len(x[0]))).max(axis=0)

    # A grid result is always one fresh value per row, even where an
    # expression does not depend on ``x``.

    def latency_many(self, grid: np.ndarray) -> np.ndarray:
        x = self._columns(grid)
        return np.full(len(x[0]), self._latency(x, self._scenario.depth))

    def capacity_margin_many(self, grid: np.ndarray) -> np.ndarray:
        x = self._columns(grid)
        return np.full(len(x[0]), self._margin(x))
