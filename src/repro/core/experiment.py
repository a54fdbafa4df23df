"""Repeated-trial experiment runner.

The paper's methodology is uniform: fix a physical configuration,
repeat the pass 10-40 times, report means and quartiles. This module
is that loop — seeded, labelled, and aggregation-ready — shared by all
scenarios and benchmarks. :func:`run_trials` is the only way trials
run: serially or fanned out over a process pool, and folded into a
:class:`~repro.obs.Recorder` when one is given. A sweep is one
``run_trials`` call per point.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, List, Optional, TypeVar

from ..obs.metrics import summarise_timer
from ..obs.recorder import Recorder
from ..sim.rng import SeedSequence
from .parallel import _chunk_bounds, _run_trial_chunk_timed, resolve_workers
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
    recorder: Optional[Recorder] = None,
) -> TrialSet[T]:
    """Run ``trial_fn`` ``repetitions`` times with per-trial seeding.

    ``trial_fn(seeds, trial_index)`` receives the experiment's seed
    container and its repetition index; everything stochastic inside
    must derive from those two so that re-running with the same seed
    reproduces the result exactly.

    ``workers > 1`` fans the trial loop out in contiguous chunks over a
    process pool of ``min(workers, repetitions)`` processes (``None``,
    0 and 1 mean serial). Because per-trial streams are derived
    statelessly from ``(seed, name, trial)``, the parallel outcomes are
    **bit-identical** to the serial loop, in trial-index order. The
    task must be picklable — use the trial task dataclasses (e.g.
    :class:`~repro.core.parallel.PassTrialTask`); a closure raises the
    pickling error when fanned out.

    ``recorder``, when given, absorbs the finished trial set (pass
    observations plus per-trial wall times) under ``label``.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions!r}")
    effective = resolve_workers(workers)
    trial_set: TrialSet[T] = TrialSet(label=label)
    if effective > 1:
        pool_size = min(effective, repetitions)
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            # Chunks are contiguous and submitted in trial order, so
            # collecting them in submission order restores trial order.
            futures = [
                pool.submit(_run_trial_chunk_timed, trial_fn, seed, start, stop)
                for start, stop in _chunk_bounds(repetitions, effective)
            ]
            for future in futures:
                for _, outcome, elapsed in future.result():
                    trial_set.outcomes.append(outcome)
                    trial_set.trial_seconds.append(elapsed)
    else:
        seeds = SeedSequence(seed)
        for trial in range(repetitions):
            began = time.perf_counter()
            trial_set.outcomes.append(trial_fn(seeds, trial))
            trial_set.trial_seconds.append(time.perf_counter() - began)
    if recorder is not None:
        recorder.absorb_trial_set(label, trial_set)
    return trial_set
