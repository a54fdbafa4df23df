"""Tests for the process-pool trial engine (`repro.core.parallel`)."""

import pickle
from concurrent.futures import Future

import pytest

from repro.core import experiment
from repro.core.experiment import run_trials
from repro.core.parallel import PassTrialTask, _chunk_bounds, resolve_workers
from repro.sim.rng import SeedSequence


class SquareTask:
    """Minimal importable (hence picklable) trial callable."""

    def __call__(self, seeds: SeedSequence, trial: int) -> float:
        return seeds.trial_stream("sq", trial).random() + trial

    def __eq__(self, other):
        return isinstance(other, SquareTask)


class InlineExecutor:
    """Stands in for ProcessPoolExecutor: records its size, starts no
    process and runs each submitted call in this one."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestResolveWorkers:
    def test_none_is_serial(self):
        assert resolve_workers(None) == 1

    def test_zero_and_one_mean_serial(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestPicklability:
    def test_pass_trial_task_round_trips(self):
        task = PassTrialTask(simulator=None, carriers=("a", "b"))
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task


class TestChunking:
    def test_covers_all_indices_in_order(self):
        bounds = _chunk_bounds(10, 3)
        flat = [i for start, stop in bounds for i in range(start, stop)]
        assert flat == list(range(10))

    def test_never_more_chunks_than_trials(self):
        assert len(_chunk_bounds(2, 8)) == 2

    def test_single_chunk(self):
        assert _chunk_bounds(5, 1) == [(0, 5)]


class TestParallelExecution:
    def test_parallel_matches_serial_order_and_values(self):
        task = SquareTask()
        serial = run_trials("t", task, 9, seed=42, workers=1)
        parallel = run_trials("t", task, 9, seed=42, workers=3)
        assert parallel.outcomes == serial.outcomes

    def test_pool_matches_inline_loop_with_one_time_per_trial(self):
        task = SquareTask()
        seeds = SeedSequence(7)
        expected = [task(seeds, i) for i in range(5)]
        trial_set = run_trials("t", task, 5, seed=7, workers=2)
        assert trial_set.outcomes == expected
        assert len(trial_set.trial_seconds) == len(expected)
        assert all(elapsed >= 0.0 for elapsed in trial_set.trial_seconds)

    def test_closure_raises_when_fanned_out(self):
        # A closure cannot cross the process boundary; fanning it out
        # fails loudly instead of quietly running on one core.
        offset = 3

        def trial(seeds, i):
            return i + offset

        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            run_trials("t", trial, 4, workers=2)

    @pytest.mark.parametrize(
        "workers, repetitions, expected", [(4, 1, 1), (4, 3, 3), (2, 9, 2)]
    )
    def test_pool_sized_to_its_chunks(
        self, monkeypatch, workers, repetitions, expected
    ):
        monkeypatch.setattr(InlineExecutor, "sizes", [])
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", InlineExecutor)
        trial_set = run_trials(
            "t", SquareTask(), repetitions, seed=5, workers=workers
        )
        assert InlineExecutor.sizes == [expected]
        assert trial_set.outcomes == run_trials(
            "t", SquareTask(), repetitions, seed=5
        ).outcomes
