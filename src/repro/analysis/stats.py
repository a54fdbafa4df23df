"""Summary statistics used by the benchmark tables.

Plain Python, like the rest of the library, so the analysis layer
runs anywhere the library runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from ..sim.rng import RandomStream


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sequence."""
    if not values:
        raise ValueError("mean of an empty sequence is undefined")
    return sum(values) / len(values)


def variance(values: Sequence[float]) -> float:
    """Unbiased sample variance (n-1 denominator)."""
    if len(values) < 2:
        raise ValueError("variance needs at least two values")
    m = mean(values)
    return sum((v - m) ** 2 for v in values) / (len(values) - 1)


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation."""
    return math.sqrt(variance(values))


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (the paper's quartile convention)."""
    if not values:
        raise ValueError("quantile of an empty sequence is undefined")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q!r}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(lower quartile, median, upper quartile)."""
    return quantile(values, 0.25), quantile(values, 0.5), quantile(values, 0.75)


@dataclass(frozen=True)
class BootstrapInterval:
    """A bootstrap percentile confidence interval for a statistic."""

    point: float
    low: float
    high: float
    confidence: float

    @property
    def width(self) -> float:
        return self.high - self.low


def bootstrap_interval(
    values: Sequence[float],
    statistic: Callable[[Sequence[float]], float] = mean,
    resamples: int = 1000,
    confidence: float = 0.95,
    seed: int = 12345,
) -> BootstrapInterval:
    """Percentile bootstrap CI for an arbitrary statistic.

    Used where the Bernoulli machinery of
    :class:`repro.core.reliability.ReliabilityEstimate` does not apply
    (e.g. mean tags-read counts).
    """
    if not values:
        raise ValueError("bootstrap of an empty sequence is undefined")
    if resamples < 10:
        raise ValueError(f"resamples must be >= 10, got {resamples!r}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    rng = RandomStream(seed)
    stats: List[float] = []
    n = len(values)
    for _ in range(resamples):
        resample = [values[rng.randint(0, n - 1)] for _ in range(n)]
        stats.append(statistic(resample))
    alpha = (1.0 - confidence) / 2.0
    return BootstrapInterval(
        point=statistic(values),
        low=quantile(stats, alpha),
        high=quantile(stats, 1.0 - alpha),
        confidence=confidence,
    )


def relative_error(measured: float, reference: float) -> float:
    """|measured - reference| / |reference| (inf for a zero reference)."""
    if reference == 0.0:
        return float("inf") if measured != 0.0 else 0.0
    return abs(measured - reference) / abs(reference)


def monotone_decreasing(values: Sequence[float], slack: float = 0.0) -> bool:
    """True when the sequence never rises by more than ``slack``.

    Used to assert shape properties (e.g. reliability vs distance) that
    hold up to simulation noise.
    """
    if slack < 0.0:
        raise ValueError(f"slack must be non-negative, got {slack!r}")
    return all(b <= a + slack for a, b in zip(values, values[1:]))
