"""Tunable MAC parameter vectors.

The paper denotes by ``Theta`` the set of parameters that can be optimized
and by ``X in Theta`` the vector of protocol-specific tunables (wake-up
interval for X-MAC, frame length for DMAC, slot length and slot count for
LMAC).  This module provides a small, explicit representation of such
parameter vectors: named scalars with box bounds, plus helpers to convert
between dictionaries and plain ``numpy`` arrays for the solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class Parameter:
    """One tunable protocol parameter.

    Attributes:
        name: Identifier used in result dictionaries (e.g. ``"wakeup_interval"``).
        lower: Lower bound (inclusive).
        upper: Upper bound (inclusive).
        unit: Human-readable unit, for reports (e.g. ``"s"``).
        description: One-line explanation of what the parameter controls.
        integer: Whether the parameter is physically integer-valued (e.g. a
            slot count).  Solvers treat it as continuous and round at the end.
    """

    name: str
    lower: float
    upper: float
    unit: str = ""
    description: str = ""
    integer: bool = False

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(f"parameter name must be a non-empty string, got {self.name!r}")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ConfigurationError(f"bounds of {self.name!r} must be finite")
        if self.lower > self.upper:
            raise ConfigurationError(
                f"parameter {self.name!r} has empty range [{self.lower}, {self.upper}]"
            )

    @property
    def span(self) -> float:
        """Width of the admissible interval."""
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        """Centre of the admissible interval."""
        return 0.5 * (self.lower + self.upper)

    def contains(self, value: float, tolerance: float = 1e-9) -> bool:
        """Whether ``value`` lies inside the bounds (with a small tolerance)."""
        return (self.lower - tolerance) <= value <= (self.upper + tolerance)

    def clip(self, value: float) -> float:
        """Project ``value`` onto the admissible interval."""
        return min(self.upper, max(self.lower, float(value)))

    def sample_grid(self, count: int) -> np.ndarray:
        """Return ``count`` evenly spaced admissible values (log-spaced when
        the interval spans more than two orders of magnitude and is positive)."""
        if count < 1:
            raise ConfigurationError(f"grid count must be >= 1, got {count!r}")
        if count == 1 or self.span == 0.0:
            return np.array([self.midpoint])
        if self.lower > 0 and self.upper / self.lower > 100.0:
            return np.geomspace(self.lower, self.upper, count)
        return np.linspace(self.lower, self.upper, count)


class ParameterSpace:
    """An ordered collection of :class:`Parameter` objects.

    The order defines the layout of the plain arrays exchanged with the
    numerical solvers.
    """

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        parameters = list(parameters)
        if not parameters:
            raise ConfigurationError("a parameter space needs at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate parameter names: {names}")
        self._parameters: List[Parameter] = parameters
        self._names: Tuple[str, ...] = tuple(names)
        self._index: Dict[str, int] = {name: i for i, name in enumerate(names)}
        # Read-only memos of axes() per count and of the last grid() asked for.
        self._axes: Dict[int, Tuple[np.ndarray, ...]] = {}
        self._grid: Optional[Tuple[int, np.ndarray]] = None

    def __getstate__(self) -> Dict[str, object]:
        # The memos are derived; a copy (or a pool worker) rebuilds its own.
        return {**self.__dict__, "_axes": {}, "_grid": None}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._parameters)

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._parameters)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Parameter:
        try:
            return self._parameters[self._index[name]]
        except KeyError as exc:
            raise ConfigurationError(
                f"unknown parameter {name!r}; known: {self.names}"
            ) from exc

    @property
    def names(self) -> List[str]:
        """Parameter names in solver order."""
        return list(self._names)

    @property
    def dimension(self) -> int:
        """Number of tunable parameters."""
        return len(self._parameters)

    @property
    def lower_bounds(self) -> np.ndarray:
        """Vector of lower bounds in solver order."""
        return np.array([p.lower for p in self._parameters], dtype=float)

    @property
    def upper_bounds(self) -> np.ndarray:
        """Vector of upper bounds in solver order."""
        return np.array([p.upper for p in self._parameters], dtype=float)

    @property
    def bounds(self) -> List[Tuple[float, float]]:
        """List of ``(lower, upper)`` pairs, the format SciPy expects."""
        return [(p.lower, p.upper) for p in self._parameters]

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #

    def checked_dict(self, values: Mapping[str, float]) -> Dict[str, float]:
        """Check a ``{name: value}`` mapping and return its values as floats.

        The result holds ``float(values[name])`` for every parameter, in
        solver order, whatever the order or type of the input.

        Raises:
            ConfigurationError: if a parameter is missing or unknown names
                are present.
        """
        if values.keys() != self._index.keys():
            unknown = set(values) - set(self._index)
            if unknown:
                raise ConfigurationError(f"unknown parameter(s): {sorted(unknown)}")
            missing = set(self._index) - set(values)
            if missing:
                raise ConfigurationError(f"missing parameter(s): {sorted(missing)}")
        return {name: float(values[name]) for name in self._names}

    def to_array(self, values: Mapping[str, float]) -> np.ndarray:
        """Convert a ``{name: value}`` mapping into a solver-ordered array.

        Raises:
            ConfigurationError: if a parameter is missing or unknown names
                are present.
        """
        return np.array(list(self.checked_dict(values).values()), dtype=float)

    def to_dict(self, array: Sequence[float]) -> Dict[str, float]:
        """Convert a solver-ordered array into a ``{name: value}`` mapping."""
        array = np.asarray(array, dtype=float).ravel()
        if array.shape[0] != self.dimension:
            raise ConfigurationError(
                f"expected {self.dimension} values, got {array.shape[0]}"
            )
        return dict(zip(self._names, array.tolist()))

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #

    def contains(self, array: Sequence[float], tolerance: float = 1e-9) -> bool:
        """Whether a point lies inside the box (with tolerance)."""
        array = np.asarray(array, dtype=float).ravel()
        if array.shape[0] != self.dimension:
            return False
        return all(
            parameter.contains(value, tolerance)
            for parameter, value in zip(self._parameters, array)
        )

    def clip(self, array: Sequence[float]) -> np.ndarray:
        """Project a point onto the box."""
        array = np.asarray(array, dtype=float).ravel()
        if array.shape[0] != self.dimension:
            raise ConfigurationError(
                f"expected {self.dimension} values, got {array.shape[0]}"
            )
        return np.clip(array, self.lower_bounds, self.upper_bounds)

    def midpoint(self) -> np.ndarray:
        """Centre of the box, a robust solver starting point."""
        return np.array([p.midpoint for p in self._parameters], dtype=float)

    def axes(self, count: int) -> Tuple[np.ndarray, ...]:
        """Each parameter's :meth:`Parameter.sample_grid` of ``count`` values.

        Memoized per count as read-only arrays: the grid scan, the hybrid's
        brackets and the polish's scans of a game all read the same axes.
        """
        axes = self._axes.get(count)
        if axes is None:
            axes = tuple(p.sample_grid(count) for p in self._parameters)
            for axis in axes:
                axis.flags.writeable = False
            self._axes[count] = axes
        return axes

    def grid(self, points_per_dimension: int) -> np.ndarray:
        """Full-factorial grid over the box.

        Returns a read-only array of shape ``(points_per_dimension ** dim,
        dim)``, memoized for the last ``points_per_dimension`` asked for.
        Only intended for the low-dimensional (1–3 parameters) spaces used by
        the MAC models; the size is validated to avoid surprises.
        """
        if points_per_dimension < 1:
            raise ConfigurationError("points_per_dimension must be >= 1")
        total = points_per_dimension**self.dimension
        if total > 2_000_000:
            raise ConfigurationError(
                f"grid of {total} points is too large; reduce points_per_dimension"
            )
        memo = self._grid
        if memo is None or memo[0] != points_per_dimension:
            mesh = np.meshgrid(*self.axes(points_per_dimension), indexing="ij")
            grid = np.stack([m.ravel() for m in mesh], axis=-1)
            grid.flags.writeable = False
            self._grid = memo = (points_per_dimension, grid)
        return memo[1]

    def describe(self) -> List[Dict[str, object]]:
        """Structured description used in reports."""
        return [
            {
                "name": p.name,
                "lower": p.lower,
                "upper": p.upper,
                "unit": p.unit,
                "integer": p.integer,
                "description": p.description,
            }
            for p in self._parameters
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{p.name}∈[{p.lower:g},{p.upper:g}]" for p in self._parameters
        )
        return f"ParameterSpace({inner})"
