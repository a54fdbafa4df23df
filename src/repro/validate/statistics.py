"""Statistical-equivalence helpers for the invariant sweeps.

Every stochastic invariant is checked as a *statistical equivalence*
claim: "the measured rate sits inside a 95% confidence interval of the
analytical prediction". These helpers keep the interval arithmetic in
one audited place so each check reads as the law it asserts, not as
interval plumbing. Nothing here draws randomness — checks pass their
own seeded streams — so the verdicts are exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

# The Wilson interval is the estimators' own; the checks take it from
# raw counts, without building an estimate object.
from ..core.reliability import Z_95, wilson_interval


@dataclass(frozen=True)
class Agreement:
    """Verdict of one measured-vs-predicted comparison."""

    measured: float
    predicted: float
    low: float
    high: float

    @property
    def within(self) -> bool:
        """Does the prediction sit inside the measured CI?"""
        return self.low <= self.predicted <= self.high

    @property
    def below(self) -> bool:
        """Is the prediction strictly above the CI (measured shortfall)?"""
        return self.high < self.predicted


def binomial_agreement(
    successes: int, trials: int, predicted: float, z: float = Z_95
) -> Agreement:
    """Compare a Bernoulli measurement against an analytical rate.

    The check direction is "prediction inside the measurement's Wilson
    interval": with 95% coverage a *correct* simulator fails one sweep
    in twenty, so callers aggregate several points and require most to
    agree rather than gating on a single interval.
    """
    low, high = wilson_interval(successes, trials, z)
    return Agreement(
        measured=successes / trials, predicted=predicted, low=low, high=high
    )


def mean_confidence_interval(
    values: Sequence[float], z: float = Z_95
) -> Tuple[float, float, float]:
    """(mean, low, high): normal-approximation CI for a sample mean."""
    if not values:
        raise ValueError("need at least one value")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, mean, mean
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = z * math.sqrt(var / n)
    return mean, mean - half, mean + half


def holm_all_within(agreements: Sequence[Agreement], allow_misses: int = 0) -> bool:
    """True when at most ``allow_misses`` comparisons fall outside CI.

    A correct simulator measured at k independent 95% intervals misses
    ~0.05·k of them; sweeps with many points pass a small allowance in
    rather than demanding a 100% hit rate the statistics do not promise.
    """
    misses = sum(1 for a in agreements if not a.within)
    return misses <= allow_misses
