"""Counters, fixed-bucket histograms, and timers for experiment runs.

The registry is deliberately shaped like a serving stack's metrics
layer (think statsd/Prometheus) rather than a statistics library:

* metric **names** are stable strings (``"pass.rounds"``,
  ``"trial.wall_s"``) so recorded runs stay comparable across PRs;
* **histograms** use *fixed* bucket edges declared at creation time, so
  two registries — from two worker processes, or two machines — can be
  merged bucket-by-bucket without resampling;
* a registry pickles as is, which is how worker processes hand their
  registries back to the parent: inside the results, no shared state.

Exact quantiles over small samples (per-trial wall times, a few dozen
values) are computed by :func:`percentile` on the raw values instead of
being estimated from buckets.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Default edges for dB-domain margin histograms: fine near 0 (where
#: link closure is decided), coarse in the hopeless tails.
MARGIN_EDGES_DB: Tuple[float, ...] = (
    -40.0, -30.0, -20.0, -15.0, -10.0, -5.0, -2.0, 0.0, 2.0, 5.0, 10.0, 20.0
)

#: Default edges for wall-time histograms (seconds), log-spaced.
SECONDS_EDGES: Tuple[float, ...] = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 120.0
)


class MetricsError(ValueError):
    """Raised for inconsistent metric declarations or merges."""


def percentile(values: Sequence[float], q: float) -> float:
    """Exact linear-interpolation percentile of raw samples.

    ``q`` is in [0, 100]. Used for the small exact sample sets the
    harness keeps (per-trial wall times), where bucket estimation would
    be needlessly lossy.
    """
    if not values:
        raise MetricsError("cannot take a percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise MetricsError(f"percentile must be in [0, 100], got {q!r}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MetricsError(f"counters only go up, got {amount!r}")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value


@dataclass
class Histogram:
    """Fixed-bucket histogram: ``len(edges) + 1`` counts plus moments.

    Bucket ``i`` holds values ``v`` with ``edges[i-1] < v <= edges[i]``
    (bucket 0 is everything at or below ``edges[0]`` ... the last
    bucket is everything above ``edges[-1]``). Fixed edges are the
    merge contract: registries from different processes add counts
    bucket-by-bucket, which only works when the edges match exactly.
    """

    edges: Tuple[float, ...]
    counts: List[int] = field(default_factory=list)
    total: int = 0
    sum: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.edges:
            raise MetricsError("a histogram needs at least one bucket edge")
        if list(self.edges) != sorted(self.edges):
            raise MetricsError(f"bucket edges must be sorted: {self.edges!r}")
        if len(set(self.edges)) != len(self.edges):
            raise MetricsError(f"bucket edges must be distinct: {self.edges!r}")
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)
        elif len(self.counts) != len(self.edges) + 1:
            raise MetricsError(
                f"{len(self.edges)} edges need {len(self.edges) + 1} "
                f"buckets, got {len(self.counts)}"
            )

    def observe(self, value: float) -> None:
        index = 0
        for edge in self.edges:
            if value <= edge:
                break
            index += 1
        self.counts[index] += 1
        self.total += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.total if self.total else None

    def merge(self, other: "Histogram") -> None:
        if other.edges != self.edges:
            raise MetricsError(
                f"cannot merge histograms with different edges: "
                f"{self.edges!r} vs {other.edges!r}"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total
        self.sum += other.sum
        for bound in (other.min,):
            if bound is not None:
                self.min = bound if self.min is None else min(self.min, bound)
        for bound in (other.max,):
            if bound is not None:
                self.max = bound if self.max is None else max(self.max, bound)


@dataclass
class Timer:
    """Accumulated wall time with exact per-sample values kept.

    ``samples`` stays exact (experiment runs record at most thousands
    of trials) so :func:`percentile` can answer p50/p95 without bucket
    error; the histogram-style moments come for free.
    """

    samples: List[float] = field(default_factory=list)

    def observe_s(self, seconds: float) -> None:
        if seconds < 0.0:
            raise MetricsError(f"durations are non-negative, got {seconds!r}")
        self.samples.append(seconds)

    def time(self) -> "_TimerContext":
        """Context manager: ``with timer.time(): ...`` records one sample."""
        return _TimerContext(self)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total_s(self) -> float:
        return sum(self.samples)

    def quantile_s(self, q: float) -> float:
        return percentile(self.samples, q)

    def merge(self, other: "Timer") -> None:
        self.samples.extend(other.samples)


class _TimerContext:
    def __init__(self, timer: Timer) -> None:
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._timer.observe_s(time.perf_counter() - self._start)


class MetricsRegistry:
    """Named metrics, aggregated per pass/trial/sweep-point and mergeable.

    Re-declaring a name returns the existing metric (histogram edges
    must match), so call sites do not need to coordinate creation
    order. Worker processes never share a registry: each builds its
    own, ships it pickled inside its results, and the parent merges.
    Two registries are equal when they hold equal metrics under the
    same names, whatever order the names were declared in.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return self._metrics == other._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def _declare(self, name: str, kind: type, factory) -> Any:
        if not name:
            raise MetricsError("metric names must be non-empty")
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise MetricsError(
                    f"metric {name!r} is a {type(existing).__name__}, "
                    f"not a {kind.__name__}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._declare(name, Counter, Counter)

    def histogram(
        self, name: str, edges: Sequence[float] = MARGIN_EDGES_DB
    ) -> Histogram:
        metric = self._declare(
            name, Histogram, lambda: Histogram(edges=tuple(edges))
        )
        if metric.edges != tuple(edges):
            raise MetricsError(
                f"histogram {name!r} already declared with edges "
                f"{metric.edges!r}, not {tuple(edges)!r}"
            )
        return metric

    def timer(self, name: str) -> Timer:
        return self._declare(name, Timer, Timer)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (the worker-to-parent direction)."""
        for name, metric in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                if isinstance(metric, Counter):
                    mine = self.counter(name)
                elif isinstance(metric, Histogram):
                    mine = self.histogram(name, metric.edges)
                elif isinstance(metric, Timer):
                    mine = self.timer(name)
                else:  # pragma: no cover - registry only stores these
                    raise MetricsError(f"unknown metric type for {name!r}")
            mine.merge(metric)


def summarise_timer(samples: Iterable[float]) -> Dict[str, Optional[float]]:
    """p50/p95/mean summary of a raw duration sample set (or Nones)."""
    values = list(samples)
    if not values:
        return {"count": 0, "mean_s": None, "p50_s": None, "p95_s": None}
    return {
        "count": len(values),
        "mean_s": sum(values) / len(values),
        "p50_s": percentile(values, 50.0),
        "p95_s": percentile(values, 95.0),
    }
