"""Fixture: closures handed to the parallel trial loop (raise when fanned out)."""

from repro.core.experiment import run_trials


def experiment(simulator, reps: int, seed: int):
    def trial(seeds, i):
        return simulator.run_pass([], seeds, i)

    run_trials("closure", trial, reps, seed=seed)  # expect[pickle-nonportable-task]
    run_trials("lambda", lambda seeds, i: i, reps, seed=seed)  # expect[pickle-nonportable-task]
    run_trials("keyword", trial_fn=trial, repetitions=reps, workers=2)  # expect[pickle-nonportable-task]


def fan_out(pool):
    return pool.submit(lambda: 1)  # expect[pickle-nonportable-task]
