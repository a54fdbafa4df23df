"""Fixture: module-level trial tasks cross the process boundary."""

from repro.core.experiment import run_trials
from repro.core.parallel import PassTrialTask


def experiment(simulator, carriers, reps: int, seed: int):
    task = PassTrialTask(simulator=simulator, carriers=tuple(carriers))
    return run_trials("portable", task, reps, seed=seed, workers=2)
