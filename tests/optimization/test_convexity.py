"""Unit tests for the numerical convexity probes."""

from __future__ import annotations

import numpy as np
import pytest

from convexity_probes import (
    is_convex_on_grid,
    is_quasiconcave_on_segment,
    sample_hessian_definiteness,
)
from repro.core.parameters import Parameter, ParameterSpace


@pytest.fixture
def box() -> ParameterSpace:
    return ParameterSpace([Parameter("x", -1.0, 1.0), Parameter("y", -1.0, 1.0)])


@pytest.fixture
def positive_box() -> ParameterSpace:
    return ParameterSpace([Parameter("x", 0.1, 5.0)])


class TestConvexityProbes:
    def test_quadratic_is_convex(self, box):
        assert is_convex_on_grid(lambda p: float(p[0] ** 2 + p[1] ** 2), box)

    def test_negative_quadratic_is_not_convex(self, box):
        assert not is_convex_on_grid(lambda p: float(-(p[0] ** 2) - p[1] ** 2), box)

    def test_one_over_x_is_convex_on_positive_box(self, positive_box):
        assert is_convex_on_grid(lambda p: float(1.0 / p[0] + p[0]), positive_box)

    def test_sine_is_not_convex(self, box):
        assert not is_convex_on_grid(lambda p: float(np.sin(3 * p[0]) + np.sin(3 * p[1])), box)


class TestQuasiConcavity:
    def test_concave_log_is_quasiconcave(self, positive_box):
        assert is_quasiconcave_on_segment(lambda p: float(np.log(p[0])), positive_box)

    def test_unimodal_bump_is_quasiconcave(self, box):
        assert is_quasiconcave_on_segment(
            lambda p: float(np.exp(-(p[0] ** 2) - p[1] ** 2)), box
        )

    def test_bimodal_function_is_not_quasiconcave(self, box):
        def two_bumps(p: np.ndarray) -> float:
            return float(
                np.exp(-10 * (p[0] - 0.6) ** 2) + np.exp(-10 * (p[0] + 0.6) ** 2)
            )

        assert not is_quasiconcave_on_segment(two_bumps, box, samples=300, seed=2)


class TestHessianSampling:
    def test_convex_function_has_nonnegative_eigenvalues(self, box):
        minimum, maximum = sample_hessian_definiteness(
            lambda p: float(p[0] ** 2 + 2 * p[1] ** 2), box
        )
        assert minimum >= -1e-4
        assert maximum > 0

    def test_concave_function_has_nonpositive_eigenvalues(self, box):
        minimum, maximum = sample_hessian_definiteness(
            lambda p: float(-(p[0] ** 2) - 2 * p[1] ** 2), box
        )
        assert maximum <= 1e-4
        assert minimum < 0

    def test_saddle_has_mixed_eigenvalues(self, box):
        minimum, maximum = sample_hessian_definiteness(
            lambda p: float(p[0] ** 2 - p[1] ** 2), box
        )
        assert minimum < 0 < maximum
