"""Streaming statistics for replicated simulation campaigns.

A campaign replicates every (scenario, protocol) simulation R times with
independent seeds and needs mean/variance/confidence intervals per metric
without keeping the raw samples around.  :class:`StreamingMoments` is the
standard single-pass Welford recurrence (numerically stable, order-dependent
only in the bit-irrelevant sense: the campaign always feeds samples in
replication order, so serial and process-pool runs aggregate identically),
and :class:`MetricAggregate` is the frozen summary that ends up in the
campaign artifact.

The confidence interval is the classic Student-t interval
``mean ± t_{(1+c)/2, n-1} * s / sqrt(n)``.  With a single replication the
sample variance — and hence the interval — is undefined; that degenerate
case is represented as ``None`` bounds rather than ``inf`` so it survives a
JSON round-trip unambiguously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.exceptions import ValidationError


def student_t_critical(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value ``t_{(1+confidence)/2, dof}``.

    Args:
        confidence: Two-sided confidence level in (0, 1), e.g. ``0.95``.
        dof: Degrees of freedom (must be >= 1).

    Returns:
        The critical value such that the central interval of the t
        distribution with ``dof`` degrees of freedom has mass ``confidence``.

    Raises:
        ValidationError: if ``confidence`` is outside (0, 1) or ``dof < 1``.
    """
    if not (0.0 < confidence < 1.0):
        raise ValidationError(f"confidence must lie in (0, 1), got {confidence!r}")
    if dof < 1:
        raise ValidationError(f"degrees of freedom must be >= 1, got {dof!r}")
    # The inverse Student-t CDF ``scipy.stats.t.ppf`` evaluates, without
    # loading ``scipy.stats`` (a second import as costly as the optimizer's).
    from scipy.special import stdtrit

    return float(stdtrit(dof, (1.0 + confidence) / 2.0))


class StreamingMoments:
    """Welford's single-pass accumulator of mean and variance.

    Feed samples with :meth:`add`; read ``count`` / ``mean`` /
    ``variance`` / ``std`` at any point.  The variance is the *sample*
    variance (``ddof=1``), which is what the Student-t interval needs.

    Example:
        >>> moments = StreamingMoments()
        >>> for x in (1.0, 2.0, 3.0):
        ...     moments.add(x)
        >>> moments.count, moments.mean, moments.variance
        (3, 2.0, 1.0)
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, sample: float) -> None:
        """Fold one sample into the running moments.

        Args:
            sample: The sample value (must be finite).

        Raises:
            ValidationError: if the sample is NaN or infinite.
        """
        value = float(sample)
        if not math.isfinite(value):
            raise ValidationError(f"samples must be finite, got {sample!r}")
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    @property
    def count(self) -> int:
        """Number of samples folded in so far."""
        return self._count

    @property
    def mean(self) -> Optional[float]:
        """Sample mean, or ``None`` before the first sample."""
        if self._count == 0:
            return None
        return self._mean

    @property
    def variance(self) -> Optional[float]:
        """Sample variance (``ddof=1``), or ``None`` with fewer than 2 samples."""
        if self._count < 2:
            return None
        return self._m2 / (self._count - 1)

    @property
    def std(self) -> Optional[float]:
        """Sample standard deviation, or ``None`` with fewer than 2 samples."""
        variance = self.variance
        if variance is None:
            return None
        return math.sqrt(variance)


@dataclass(frozen=True)
class MetricAggregate:
    """Frozen summary of one metric across a cell's replications.

    Attributes:
        metric: Metric name (``"energy"``, ``"delay"``, ``"delivery_ratio"``).
        count: Number of replications that produced a sample (can be below
            the campaign's replication count, e.g. delay when some
            replications delivered no packet).
        mean: Sample mean, or ``None`` when no replication produced a sample.
        variance: Sample variance (``ddof=1``), or ``None`` when fewer than
            two samples exist — the single-replication degenerate case.
        std: Sample standard deviation, ``None`` under the same condition.
        ci_lower: Lower bound of the Student-t confidence interval, or
            ``None`` when the interval is undefined (fewer than two samples).
        ci_upper: Upper bound, same convention.
        confidence: Two-sided confidence level the interval was computed at.
    """

    metric: str
    count: int
    mean: Optional[float]
    variance: Optional[float]
    std: Optional[float]
    ci_lower: Optional[float]
    ci_upper: Optional[float]
    confidence: float

    @classmethod
    def from_moments(
        cls, metric: str, moments: StreamingMoments, confidence: float
    ) -> "MetricAggregate":
        """Summarize a finished accumulator into a frozen aggregate.

        Args:
            metric: Metric name recorded in the aggregate.
            moments: The accumulator holding the replication samples.
            confidence: Two-sided confidence level for the Student-t interval.

        Returns:
            The :class:`MetricAggregate`; interval bounds are ``None`` when
            fewer than two samples make the interval undefined.
        """
        mean = moments.mean
        std = moments.std
        ci_lower = ci_upper = None
        if mean is not None and std is not None and moments.count >= 2:
            half_width = (
                student_t_critical(confidence, moments.count - 1)
                * std
                / math.sqrt(moments.count)
            )
            ci_lower = mean - half_width
            ci_upper = mean + half_width
        return cls(
            metric=metric,
            count=moments.count,
            mean=mean,
            variance=moments.variance,
            std=std,
            ci_lower=ci_lower,
            ci_upper=ci_upper,
            confidence=confidence,
        )

    def as_dict(self) -> Dict[str, object]:
        """Flat JSON-ready representation (``None`` maps to JSON ``null``)."""
        return {
            "metric": self.metric,
            "count": self.count,
            "mean": self.mean,
            "variance": self.variance,
            "std": self.std,
            "ci_lower": self.ci_lower,
            "ci_upper": self.ci_upper,
            "confidence": self.confidence,
        }
