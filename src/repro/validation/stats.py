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


def _normal_quantile(tail: float) -> float:
    """The standard normal quantile ``x`` with upper tail ``tail < 0.5``.

    Newton's method on ``erfc`` from the median, which approaches the root
    from below without overshooting: the CDF is concave right of 0.
    """
    x = 0.0
    for _ in range(200):
        step = (0.5 * math.erfc(x / math.sqrt(2.0)) - tail) * math.sqrt(2.0 * math.pi)
        step *= math.exp(0.5 * x * x)
        x += step
        if step <= 1e-16 * x:
            break
    return x


def _central_mass(theta: float, dof: int) -> float:
    """``P(|T| <= sqrt(dof) tan(theta))`` for ``T`` with ``dof`` degrees of
    freedom: the finite series of Abramowitz & Stegun 26.7.3-4."""
    cos2 = math.cos(theta) ** 2
    if dof % 2 == 0:  # sin (1 + 1/2 cos^2 + 1*3/(2*4) cos^4 + ...), dof/2 terms
        term = total = 1.0
        for k in range(1, dof // 2):
            term *= cos2 * (2 * k - 1) / (2 * k)
            total += term
        return math.sin(theta) * total
    # 2/pi (theta + sin (cos + 2/3 cos^3 + 2*4/(3*5) cos^5 + ...)), (dof - 1)/2 terms
    term = total = math.cos(theta) if dof > 1 else 0.0
    for k in range(1, (dof - 1) // 2):
        term *= cos2 * (2 * k) / (2 * k + 1)
        total += term
    return 2.0 / math.pi * (theta + math.sin(theta) * total)


def student_t_critical(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value ``t_{(1+confidence)/2, dof}``.

    Up to 1,000 degrees of freedom, Newton's method (kept inside a
    bisection bracket) solves ``P(|T| <= t) = confidence`` in
    ``theta = atan(t / sqrt(dof))`` on the exact finite series; above, the
    Cornish-Fisher expansion of Abramowitz & Stegun 26.7.5 in ``1/dof``,
    whose first omitted term is below 1e-13 relative there.  Both agree with
    ``scipy.stats.t.ppf`` to 1e-12 relative.

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
    x = _normal_quantile(0.5 * (1.0 - confidence))
    x2 = x * x
    expansion = x + sum(
        x * polynomial / divisor / dof**power
        for power, (polynomial, divisor) in enumerate(
            (
                (x2 + 1.0, 4.0),
                ((5.0 * x2 + 16.0) * x2 + 3.0, 96.0),
                (((3.0 * x2 + 19.0) * x2 + 17.0) * x2 - 15.0, 384.0),
                ((((79.0 * x2 + 776.0) * x2 + 1482.0) * x2 - 1920.0) * x2 - 945.0, 92160.0),
            ),
            start=1,
        )
    )
    if dof > 1000:
        return expansion
    # Newton in theta: dP/dtheta = 2 K cos(theta)^(dof - 1), K the density's constant.
    log_ratio = math.lgamma(0.5 * (dof + 1)) - math.lgamma(0.5 * dof)
    scale = 2.0 * math.exp(log_ratio) / math.sqrt(math.pi)
    lo, hi = 0.0, 0.5 * math.pi
    theta = min(max(math.atan(expansion / math.sqrt(dof)), 0.0), hi) if dof > 2 else 0.25 * math.pi
    for _ in range(200):
        mass = _central_mass(theta, dof)
        lo, hi = (theta, hi) if mass < confidence else (lo, theta)
        slope = scale * math.cos(theta) ** (dof - 1)
        step = (confidence - mass) / slope if slope > 0.0 else math.inf
        if not lo < theta + step < hi:
            step = 0.5 * (lo + hi) - theta
        theta += step
        if abs(step) <= 2.0 * math.ulp(theta):
            break
    return math.sqrt(dof) * math.tan(theta)


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
