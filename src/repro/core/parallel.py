"""Process-pool pieces of the repeated-trial loop.

Every experiment in the paper is "repeat the pass N times and
aggregate", and every random draw inside a trial derives statelessly
from ``(root_seed, stream_name, trial_index)`` via
:meth:`repro.sim.rng.SeedSequence.trial_stream`. Trials therefore share
no mutable state at all: running them in worker processes produces
**bit-identical** outcomes to the serial loop, in any execution order.
:func:`repro.core.experiment.run_trials` is the one loop; with
``workers > 1`` it fans out through this module:

* :func:`resolve_workers` — the effective worker count (``None``, 0 and
  1 all mean serial);
* :class:`PassTrialTask` — a picklable trial callable wrapping
  :meth:`~repro.world.simulation.PortalPassSimulator.run_pass`;
  closures cannot cross a process boundary, and fanning one out raises
  the pickling error. Its compile-once scene
  (:class:`CompiledSceneTask`) is shared with the supervised-pass task;
* :func:`_chunk_bounds` / :func:`_run_trial_chunk_timed` — the
  contiguous trial blocks the pool runs, each outcome shipped home
  with its trial index and wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from ..sim.rng import SeedSequence

T = TypeVar("T")


def resolve_workers(workers: Optional[int]) -> int:
    """Effective worker count for a trial loop (1 means serial).

    ``None``, ``0`` and ``1`` all mean serial; a negative count raises.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers!r}")
    return max(1, workers)


class CompiledSceneTask:
    """Compile-once scene for a frozen trial task.

    A subclass is a frozen dataclass with ``simulator`` and
    ``carriers`` fields. The first :meth:`scene` call in each process
    compiles the carriers
    (:meth:`~repro.world.simulation.PortalPassSimulator.compile`) and
    every later call returns that scene. The scene is not a field: it
    stays out of the task's pickle, equality and
    :func:`dataclasses.replace`, so a worker compiles once per chunk it
    receives and the parent never compiles a call it fans out.
    """

    #: The compiled scene, set by the first call in this process.
    _scene = None

    def scene(self) -> Any:
        scene = self._scene
        if scene is None:
            scene = self.simulator.compile(self.carriers)
            object.__setattr__(self, "_scene", scene)
        return scene

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_scene", None)
        return state


@dataclass(frozen=True)
class PassTrialTask(CompiledSceneTask):
    """A picklable trial callable: one seeded portal pass per trial.

    This is the parallel-safe replacement for the per-scenario
    ``def trial(seeds, i): return sim.run_pass([carrier], seeds, i)``
    closures. All fields are plain dataclasses, so the task ships to
    worker processes wholesale; the per-trial
    :class:`~repro.sim.rng.SeedSequence` is reconstructed in the worker
    from the root seed, which is what makes the fan-out bit-identical
    to the serial loop. Every pass runs on the task's compiled
    :meth:`~CompiledSceneTask.scene`.
    """

    simulator: Any
    carriers: Tuple[Any, ...]
    fault_plan: Any = None

    def __call__(self, seeds: SeedSequence, trial: int) -> Any:
        return self.simulator.run_pass(
            self.scene(), seeds, trial, fault_plan=self.fault_plan
        )


def _run_trial_chunk_timed(
    task: Callable[[SeedSequence, int], T],
    root_seed: int,
    start: int,
    stop: int,
) -> List[Tuple[int, T, float]]:
    """Worker entry point: run a contiguous block of trial indices,
    pairing each outcome with its trial index and wall time in seconds.

    A fresh :class:`SeedSequence` is built from the root seed inside
    the worker; because streams are derived statelessly from
    ``(root_seed, name, trial)``, the outcomes match the serial loop
    exactly regardless of which worker runs which block.

    The timing rides home **with the result** — workers share no state
    with the parent, so this is how per-trial latency from a process
    pool reaches the run's metrics registry. Outcomes are unaffected:
    the clock reads bracket the trial call and touch nothing inside it.
    ``run_trials`` collects chunks in submission order, which is trial
    order; the index stays in the payload because portalbench's
    ``core.result_pickle_bytes`` models these ``(index, outcome,
    seconds)`` triples.
    """
    seeds = SeedSequence(root_seed)
    timed: List[Tuple[int, T, float]] = []
    for trial in range(start, stop):
        began = time.perf_counter()
        outcome = task(seeds, trial)
        timed.append((trial, outcome, time.perf_counter() - began))
    return timed


def _chunk_bounds(repetitions: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``range(repetitions)`` into at most ``chunks`` contiguous blocks."""
    chunks = max(1, min(chunks, repetitions))
    base, extra = divmod(repetitions, chunks)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for i in range(chunks):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds
