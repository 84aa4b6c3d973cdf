"""Streaming moments and Student-t intervals of the campaign layer."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.validation import MetricAggregate, StreamingMoments, student_t_critical


class TestStreamingMoments:
    def test_matches_numpy_mean_and_sample_variance(self):
        samples = [0.3, 1.7, 2.9, -0.4, 5.5, 3.1, 0.0, 2.2]
        moments = StreamingMoments()
        for sample in samples:
            moments.add(sample)
        assert moments.count == len(samples)
        assert moments.mean == pytest.approx(np.mean(samples), rel=1e-12)
        assert moments.variance == pytest.approx(np.var(samples, ddof=1), rel=1e-12)
        assert moments.std == pytest.approx(np.std(samples, ddof=1), rel=1e-12)

    def test_empty_accumulator_reports_none(self):
        moments = StreamingMoments()
        assert moments.count == 0
        assert moments.mean is None
        assert moments.variance is None
        assert moments.std is None

    def test_single_sample_has_mean_but_no_variance(self):
        moments = StreamingMoments()
        moments.add(4.2)
        assert moments.count == 1
        assert moments.mean == 4.2
        assert moments.variance is None
        assert moments.std is None

    def test_constant_samples_have_zero_variance(self):
        moments = StreamingMoments()
        for _ in range(5):
            moments.add(2.5)
        assert moments.mean == 2.5
        assert moments.variance == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ValidationError):
            StreamingMoments().add(bad)


class TestStudentT:
    def test_known_critical_values(self):
        # Classic table values: t_{0.975, 4} and t_{0.975, 10}.
        assert student_t_critical(0.95, 4) == pytest.approx(2.776, abs=1e-3)
        assert student_t_critical(0.95, 10) == pytest.approx(2.228, abs=1e-3)

    def test_within_1e_12_of_scipy_stats_t_ppf(self):
        # SciPy is a test-only oracle here: the library's quantile is its own.
        student_t = pytest.importorskip("scipy.stats").t

        levels = (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999)
        dofs = [*range(1, 400), 1_000, 5_000, 1_000_000]
        grid = [(confidence, dof) for confidence in levels for dof in dofs]
        expected = student_t.ppf(
            [(1.0 + confidence) / 2.0 for confidence, _ in grid], [dof for _, dof in grid]
        )
        mismatches = [
            (confidence, dof)
            for (confidence, dof), reference in zip(grid, expected.tolist())
            if abs(student_t_critical(confidence, dof) / reference - 1.0) > 1e-12
        ]
        assert len(grid) == 2814
        assert mismatches == []

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            student_t_critical(1.0, 4)
        with pytest.raises(ValidationError):
            student_t_critical(0.0, 4)
        with pytest.raises(ValidationError):
            student_t_critical(0.95, 0)


class TestMetricAggregate:
    def _moments(self, samples):
        moments = StreamingMoments()
        for sample in samples:
            moments.add(sample)
        return moments

    def test_interval_matches_textbook_formula(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        aggregate = MetricAggregate.from_moments(
            "energy", self._moments(samples), confidence=0.95
        )
        half = student_t_critical(0.95, 4) * np.std(samples, ddof=1) / math.sqrt(5)
        assert aggregate.mean == pytest.approx(3.0)
        assert aggregate.ci_lower == pytest.approx(3.0 - half, rel=1e-12)
        assert aggregate.ci_upper == pytest.approx(3.0 + half, rel=1e-12)

    def test_single_replication_interval_is_degenerate(self):
        # One sample: the sample variance — hence the CI — is undefined, and
        # the aggregate says so with None bounds instead of raising.
        aggregate = MetricAggregate.from_moments(
            "delay", self._moments([0.7]), confidence=0.95
        )
        assert aggregate.count == 1
        assert aggregate.mean == 0.7
        assert aggregate.variance is None
        assert aggregate.ci_lower is None
        assert aggregate.ci_upper is None

    def test_no_samples_aggregate_is_all_none(self):
        aggregate = MetricAggregate.from_moments(
            "delay", StreamingMoments(), confidence=0.95
        )
        assert aggregate.count == 0
        assert aggregate.mean is None
        assert aggregate.ci_lower is None

    def test_as_dict_round_trips_none(self):
        aggregate = MetricAggregate.from_moments(
            "delay", self._moments([0.7]), confidence=0.95
        )
        payload = aggregate.as_dict()
        assert payload["mean"] == 0.7
        assert payload["ci_lower"] is None
        assert payload["ci_upper"] is None
