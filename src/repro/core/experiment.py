"""Repeated-trial experiment runner.

The paper's methodology is uniform: fix a physical configuration,
repeat the pass 10-40 times, report means and quartiles. This module
is that loop — seeded, labelled, and aggregation-ready — shared by all
scenarios and benchmarks.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, List, Optional, Sequence, Tuple, TypeVar

from ..obs.metrics import summarise_timer
from ..sim.rng import SeedSequence
from .parallel import (
    execute_timed_trials,
    gather_timed_trials,
    resolve_workers,
    submit_timed_trials,
    task_is_picklable,
)
from .reliability import CountDistribution, ReliabilityEstimate

T = TypeVar("T")

#: Default root seed for every experiment; benchmarks override per run.
DEFAULT_SEED = 20070625  # DSN 2007, Edinburgh, 25 June


def stable_hash(text: str) -> int:
    """A process-independent 31-bit hash for deriving sub-seeds.

    Python's built-in ``hash()`` is salted per interpreter process, so
    using it for seed derivation silently breaks reproducibility across
    runs; every scenario derives its per-configuration seeds through
    this instead.
    """
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass
class TrialSet(Generic[T]):
    """Results of running one configuration ``n`` times."""

    label: str
    outcomes: List[T] = field(default_factory=list)
    #: Wall time of each trial, in trial-index order — measured where
    #: the trial ran (inside the worker, for parallel loops) and
    #: shipped back with the outcomes. Excluded from equality: two runs
    #: with identical outcomes are the same experiment however long the
    #: machine took.
    trial_seconds: List[float] = field(default_factory=list, compare=False)

    def __len__(self) -> int:
        return len(self.outcomes)

    def timing_summary(self) -> Dict[str, float]:
        """count / mean / p50 / p95 of the per-trial wall times."""
        return summarise_timer(self.trial_seconds)

    def map(self, fn: Callable[[T], float]) -> List[float]:
        return [fn(o) for o in self.outcomes]

    def success_estimate(
        self, predicate: Callable[[T], bool]
    ) -> ReliabilityEstimate:
        """Bernoulli estimate over a per-trial success predicate."""
        return ReliabilityEstimate.from_outcomes(
            [predicate(o) for o in self.outcomes]
        )

    def count_distribution(
        self, counter: Callable[[T], int], total: int
    ) -> CountDistribution:
        """"x of N read" distribution, for Figure 2/4-style results."""
        return CountDistribution(
            counts=tuple(counter(o) for o in self.outcomes), total_tags=total
        )


def run_trials(
    label: str,
    trial_fn: Callable[[SeedSequence, int], T],
    repetitions: int,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
) -> TrialSet[T]:
    """Run ``trial_fn`` ``repetitions`` times with per-trial seeding.

    ``trial_fn(seeds, trial_index)`` receives the experiment's seed
    container and its repetition index; everything stochastic inside
    must derive from those two so that re-running with the same seed
    reproduces the result exactly.

    ``workers`` fans the trial loop out over a process pool (``None``
    defers to the ``REPRO_WORKERS`` environment variable; unset means
    serial). Because per-trial streams are derived statelessly from
    ``(seed, name, trial)``, the parallel outcomes are **bit-identical**
    to the serial loop, in trial-index order. Trial callables that
    cannot be pickled (closures) silently run serially; use the trial
    task dataclasses (e.g. :class:`~repro.core.parallel.PassTrialTask`)
    to make a workload parallel-capable.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions!r}")
    effective = resolve_workers(workers)
    if effective > 1 and task_is_picklable(trial_fn):
        outcomes, seconds = execute_timed_trials(
            trial_fn, repetitions, seed, effective
        )
        return TrialSet(label=label, outcomes=outcomes, trial_seconds=seconds)
    seeds = SeedSequence(seed)
    trial_set: TrialSet[T] = TrialSet(label=label)
    for trial in range(repetitions):
        began = time.perf_counter()
        trial_set.outcomes.append(trial_fn(seeds, trial))
        trial_set.trial_seconds.append(time.perf_counter() - began)
    return trial_set


def sweep(
    label_fn: Callable[[float], str],
    values: Sequence[float],
    trial_fn_factory: Callable[[float], Callable[[SeedSequence, int], T]],
    repetitions: int,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
) -> Dict[float, TrialSet[T]]:
    """Run a parameter sweep: one :func:`run_trials` per value.

    Each sweep point derives its own seed from the root seed and the
    parameter value, keeping points statistically independent while the
    whole sweep stays reproducible. Two sweep values that collide after
    rounding to 9 decimals would share a seed (and, if exactly equal,
    silently overwrite each other's results), so duplicates raise
    :class:`ValueError`.

    With ``workers`` (or ``REPRO_WORKERS``) set and picklable trial
    tasks, every (value, trial) pair across the whole sweep fans out
    over one shared process pool, so narrow sweeps with few repetitions
    per point still saturate the machine.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions!r}")
    points: List[Tuple[float, int, Callable[[SeedSequence, int], T]]] = []
    seen: Dict[str, float] = {}
    for value in values:
        key = repr(round(value, 9))
        if key in seen:
            raise ValueError(
                f"sweep values {seen[key]!r} and {value!r} collide after "
                f"round(value, 9); sweep points must be distinct"
            )
        seen[key] = value
        point_seed = seed ^ stable_hash(key)
        points.append((value, point_seed, trial_fn_factory(value)))

    effective = resolve_workers(workers)
    results: Dict[float, TrialSet[T]] = {}
    if effective > 1 and all(task_is_picklable(fn) for _, _, fn in points):
        # One pool for the whole sweep: submit every point's chunks up
        # front, then collect in order.
        with ProcessPoolExecutor(max_workers=effective) as pool:
            submitted = [
                (
                    value,
                    submit_timed_trials(
                        pool, fn, repetitions, point_seed, effective
                    ),
                )
                for value, point_seed, fn in points
            ]
            for value, futures in submitted:
                outcomes, seconds = gather_timed_trials(futures)
                results[value] = TrialSet(
                    label=label_fn(value),
                    outcomes=outcomes,
                    trial_seconds=seconds,
                )
        return results
    for value, point_seed, fn in points:
        results[value] = run_trials(
            label_fn(value), fn, repetitions, seed=point_seed
        )
    return results
