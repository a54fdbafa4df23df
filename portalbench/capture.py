"""Capture of the trial loops a scenario entry point runs.

Scenario entry points return aggregates, not passes. To see each pass
(its outcome, its wall time, its seed) the benchmark swaps the
``run_trials`` name inside the scenario's module for a recorder that
calls the original and keeps what it returned. This costs one extra
call per configuration, not per pass, so it stays on in timed runs.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Iterator, List, Optional


@dataclass
class TrialsCall:
    """One ``run_trials`` call made by a scenario entry point."""

    label: str
    task: Callable
    seed: int
    workers: int
    wall_s: float
    outcomes: List[Any]
    trial_seconds: List[float]


@dataclass
class Unit:
    """One call of a workload's scenario entry point."""

    seed: int
    #: Passes the unit was meant to run (counted as failed on error).
    planned_passes: int
    calls: List[TrialsCall] = field(default_factory=list)
    result: Any = None
    recorder: Any = None
    error: Optional[str] = None
    #: Gen 2 inventory rounds the call ran.
    rounds: int = 0
    #: Every reliability the call reported; each must lie in [0, 1].
    reliabilities: List[float] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return sum(len(c.outcomes) for c in self.calls)


@contextlib.contextmanager
def capture_trials(module: ModuleType, sink: List[TrialsCall]) -> Iterator[None]:
    """Record every ``run_trials`` call made through ``module`` into ``sink``."""
    original = module.run_trials
    signature = inspect.signature(original)

    def run_trials(*args: Any, **kwargs: Any) -> Any:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        began = time.perf_counter()
        trials = original(*args, **kwargs)
        wall = time.perf_counter() - began
        arguments = bound.arguments
        sink.append(
            TrialsCall(
                label=arguments["label"],
                task=arguments["trial_fn"],
                seed=arguments["seed"],
                workers=arguments["workers"] or 1,
                wall_s=wall,
                outcomes=list(trials.outcomes),
                trial_seconds=list(trials.trial_seconds),
            )
        )
        return trials

    module.run_trials = run_trials
    try:
        yield
    finally:
        module.run_trials = original
