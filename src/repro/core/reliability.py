"""Reliability definitions and estimators (paper Section 2.1).

* **read reliability** — probability that a reader successfully detects
  and identifies a *tag* while it is in the read range of one of the
  reader's antennas;
* **tracking reliability** — probability that the system detects and
  identifies an *object* present in a designated area. An object may
  carry several tags, so tracking reliability is a property of the
  object, not of any single tag.

Estimates carry their trial counts so tables can report uncertainty;
the paper reports means and upper/lower quartiles over repetitions,
and we add Wilson score intervals for the Bernoulli rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class ReliabilityEstimate:
    """A Bernoulli success-rate estimate from repeated trials."""

    successes: int
    trials: int

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise ValueError(f"trials must be positive, got {self.trials!r}")
        if not 0 <= self.successes <= self.trials:
            raise ValueError(
                f"successes {self.successes} out of range 0..{self.trials}"
            )

    @property
    def rate(self) -> float:
        """Point estimate (fraction of successful trials)."""
        return self.successes / self.trials

    @property
    def percent(self) -> float:
        """Point estimate in percent, as the paper's tables report."""
        return 100.0 * self.rate

    def wilson_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Wilson score interval for the underlying probability.

        Preferred over the normal approximation because the paper's
        rates sit near 0 and 1, where Wald intervals misbehave.
        """
        n = float(self.trials)
        p = self.rate
        denom = 1.0 + z * z / n
        centre = (p + z * z / (2.0 * n)) / denom
        half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
        return (max(0.0, centre - half), min(1.0, centre + half))

    def combined_with(self, other: "ReliabilityEstimate") -> "ReliabilityEstimate":
        """Pool two estimates of the same quantity."""
        return ReliabilityEstimate(
            self.successes + other.successes, self.trials + other.trials
        )

    @staticmethod
    def from_outcomes(outcomes: Sequence[bool]) -> "ReliabilityEstimate":
        """Build from a list of per-trial success booleans."""
        if not outcomes:
            raise ValueError("need at least one outcome")
        return ReliabilityEstimate(sum(1 for o in outcomes if o), len(outcomes))

    @staticmethod
    def pooled(estimates: Sequence["ReliabilityEstimate"]) -> "ReliabilityEstimate":
        """Pool several estimates (e.g. average over placements)."""
        if not estimates:
            raise ValueError("need at least one estimate")
        return ReliabilityEstimate(
            sum(e.successes for e in estimates),
            sum(e.trials for e in estimates),
        )


@dataclass(frozen=True)
class CountDistribution:
    """Distribution of "tags read out of N" across trials (Figs 2 and 4)."""

    counts: Tuple[int, ...]
    total_tags: int

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("need at least one trial count")
        if self.total_tags <= 0:
            raise ValueError(
                f"total tags must be positive, got {self.total_tags!r}"
            )
        for c in self.counts:
            if not 0 <= c <= self.total_tags:
                raise ValueError(
                    f"count {c} out of range 0..{self.total_tags}"
                )

    @property
    def mean(self) -> float:
        return sum(self.counts) / len(self.counts)

    @property
    def mean_fraction(self) -> float:
        return self.mean / self.total_tags

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile of the per-trial counts."""
        # Imported here: the analysis package loads its table and figure
        # modules, which no simulated pass needs.
        from ..analysis.stats import quantile

        return float(quantile(self.counts, q))

    @property
    def lower_quartile(self) -> float:
        return self.quantile(0.25)

    @property
    def upper_quartile(self) -> float:
        return self.quantile(0.75)

    def as_reliability(self) -> ReliabilityEstimate:
        """Interpret each tag-read in each trial as a Bernoulli draw."""
        return ReliabilityEstimate(
            successes=sum(self.counts),
            trials=self.total_tags * len(self.counts),
        )


def tracking_success(read_epcs: set, object_epcs: Sequence[str]) -> bool:
    """Did the system identify the object (any of its tags read)?

    This is the paper's tracking-reliability event: one successful tag
    read suffices to identify an object carrying several tags.
    """
    if not object_epcs:
        raise ValueError("object carries no tags")
    return any(epc in read_epcs for epc in object_epcs)


def per_location_reliability(
    outcomes_by_location: Dict[str, Sequence[bool]],
) -> Dict[str, ReliabilityEstimate]:
    """Convenience for building Table 1/2-style per-placement rows."""
    if not outcomes_by_location:
        raise ValueError("no locations given")
    return {
        location: ReliabilityEstimate.from_outcomes(outcomes)
        for location, outcomes in outcomes_by_location.items()
    }
