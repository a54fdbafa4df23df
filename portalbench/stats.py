"""Summary statistics used by the benchmark's metrics."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Optional, Sequence, Tuple

#: A tail percentile needs this many samples strictly beyond it.
TAIL_MIN_BEYOND = 10

#: Tail latency is reported only for runs holding at least this many passes.
TAIL_MIN_SAMPLES = 100

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def _rank(percentile: float, n: int) -> int:
    """1-based nearest rank; the epsilon absorbs float error in ``p * n``."""
    return max(1, math.ceil(percentile * n / 100.0 - 1e-9))


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of already sorted values."""
    return sorted_values[_rank(percentile, len(sorted_values)) - 1]


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` of the highest percentile with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it.

    ``None`` when there are fewer than :data:`TAIL_MIN_SAMPLES` samples.
    """
    n = len(values)
    if n < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            return p, nearest_rank(ordered, p)
    raise AssertionError("unreachable: p90 of >= 100 samples has 10 beyond")


def digest(items: Any) -> str:
    """A short stable hash of JSON-serialisable outcomes."""
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
