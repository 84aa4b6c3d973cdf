"""Numerical convexity and quasi-concavity probes.

The paper's uniqueness argument for the Nash bargaining solution rests on the
feasible set being convex and the Nash product being quasi-concave.  The MAC
models are closed-form but messy, so instead of symbolic proofs the tests
run cheap numerical probes:

* :func:`is_convex_on_grid` — midpoint-convexity check of a scalar function
  on random segment samples inside a box,
* :func:`is_quasiconcave_on_segment` — quasi-concavity check along random
  segments (no local interior minima below the endpoints),
* :func:`sample_hessian_definiteness` — finite-difference Hessian eigenvalue
  sampling.

All probes are necessary-condition checks: they can refute convexity but can
only build confidence in it, which is stated in their docstrings.

pytest puts ``tests/`` on ``sys.path`` (``tests/conftest.py``), so this
module is imported as ``convexity_probes``.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.core.parameters import ParameterSpace

ScalarFunction = Callable[[np.ndarray], float]


def _random_segment_pairs(
    space: ParameterSpace, samples: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``samples`` pairs of points inside the box."""
    rng = np.random.default_rng(seed)
    lower = space.lower_bounds
    upper = space.upper_bounds
    shape = (samples, space.dimension)
    a = lower + rng.uniform(0.0, 1.0, size=shape) * (upper - lower)
    b = lower + rng.uniform(0.0, 1.0, size=shape) * (upper - lower)
    return a, b


def is_convex_on_grid(
    function: ScalarFunction,
    space: ParameterSpace,
    samples: int = 200,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> bool:
    """Midpoint-convexity probe: ``f((a+b)/2) <= (f(a)+f(b))/2`` on samples.

    Returns ``False`` as soon as one sampled segment violates midpoint
    convexity by more than ``tolerance`` (relative to the magnitude of the
    values involved); returns ``True`` if no violation is found.  A ``True``
    result is evidence, not proof.
    """
    a_points, b_points = _random_segment_pairs(space, samples, seed)
    for a, b in zip(a_points, b_points):
        fa = float(function(a))
        fb = float(function(b))
        fm = float(function(0.5 * (a + b)))
        if not (np.isfinite(fa) and np.isfinite(fb) and np.isfinite(fm)):
            return False
        scale = max(1.0, abs(fa), abs(fb))
        if fm > 0.5 * (fa + fb) + tolerance * scale:
            return False
    return True


def is_quasiconcave_on_segment(
    function: ScalarFunction,
    space: ParameterSpace,
    samples: int = 100,
    interior_points: int = 9,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> bool:
    """Quasi-concavity probe along random segments.

    A function is quasi-concave iff on every segment its value never drops
    below the minimum of the endpoint values.  The probe samples random
    segments and ``interior_points`` interior points per segment.
    """
    a_points, b_points = _random_segment_pairs(space, samples, seed)
    fractions = np.linspace(0.0, 1.0, interior_points + 2)[1:-1]
    for a, b in zip(a_points, b_points):
        fa = float(function(a))
        fb = float(function(b))
        if not (np.isfinite(fa) and np.isfinite(fb)):
            return False
        floor = min(fa, fb)
        scale = max(1.0, abs(fa), abs(fb))
        for fraction in fractions:
            fm = float(function(a + fraction * (b - a)))
            if not np.isfinite(fm):
                return False
            if fm < floor - tolerance * scale:
                return False
    return True


def sample_hessian_definiteness(
    function: ScalarFunction,
    space: ParameterSpace,
    samples: int = 25,
    relative_step: float = 1e-4,
    seed: int = 0,
) -> Tuple[float, float]:
    """Sample finite-difference Hessian eigenvalues inside the box.

    Returns ``(min_eigenvalue, max_eigenvalue)`` over all sampled points.
    A non-negative minimum eigenvalue is numerical evidence of (local)
    convexity; a non-positive maximum eigenvalue of concavity.

    Points too close to the box boundary are pulled inward so the central
    differences stay inside the admissible region.
    """
    rng = np.random.default_rng(seed)
    lower = space.lower_bounds
    upper = space.upper_bounds
    span = upper - lower
    step = relative_step * np.where(span > 0, span, 1.0)
    dimension = space.dimension

    min_eigenvalue = np.inf
    max_eigenvalue = -np.inf
    for _ in range(samples):
        point = lower + rng.uniform(0.05, 0.95, size=dimension) * span
        hessian = np.zeros((dimension, dimension))
        f0 = float(function(point))
        for i in range(dimension):
            for j in range(i, dimension):
                ei = np.zeros(dimension)
                ej = np.zeros(dimension)
                ei[i] = step[i]
                ej[j] = step[j]
                if i == j:
                    f_plus = float(function(point + ei))
                    f_minus = float(function(point - ei))
                    value = (f_plus - 2.0 * f0 + f_minus) / (step[i] ** 2)
                else:
                    f_pp = float(function(point + ei + ej))
                    f_pm = float(function(point + ei - ej))
                    f_mp = float(function(point - ei + ej))
                    f_mm = float(function(point - ei - ej))
                    value = (f_pp - f_pm - f_mp + f_mm) / (4.0 * step[i] * step[j])
                hessian[i, j] = value
                hessian[j, i] = value
        if not np.all(np.isfinite(hessian)):
            continue
        eigenvalues = np.linalg.eigvalsh(hessian)
        min_eigenvalue = min(min_eigenvalue, float(eigenvalues.min()))
        max_eigenvalue = max(max_eigenvalue, float(eigenvalues.max()))
    if not np.isfinite(min_eigenvalue):
        min_eigenvalue = float("nan")
    if not np.isfinite(max_eigenvalue):
        max_eigenvalue = float("nan")
    return min_eigenvalue, max_eigenvalue
