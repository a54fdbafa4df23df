"""Tests for the repeated-trial experiment runner."""

import pytest

from repro.core.experiment import TrialSet, run_trials
from repro.sim.rng import SeedSequence


class TestRunTrials:
    def test_runs_requested_repetitions(self):
        trials = run_trials("t", lambda seeds, i: i, repetitions=7)
        assert len(trials) == 7
        assert trials.outcomes == list(range(7))

    def test_label_kept(self):
        assert run_trials("my-label", lambda s, i: i, 1).label == "my-label"

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError):
            run_trials("t", lambda s, i: i, 0)

    def test_reproducible_with_seed(self):
        def trial(seeds: SeedSequence, index: int) -> float:
            return seeds.trial_stream("x", index).random()

        a = run_trials("t", trial, 5, seed=123)
        b = run_trials("t", trial, 5, seed=123)
        assert a.outcomes == b.outcomes

    def test_different_seeds_differ(self):
        def trial(seeds: SeedSequence, index: int) -> float:
            return seeds.trial_stream("x", index).random()

        a = run_trials("t", trial, 5, seed=123)
        b = run_trials("t", trial, 5, seed=456)
        assert a.outcomes != b.outcomes

    def test_recorder_absorbs_the_trial_set_once(self):
        absorbed = []

        class Recorder:
            def absorb_trial_set(self, label, trial_set):
                absorbed.append((label, trial_set))

        trials = run_trials("rec", lambda s, i: i, 3, recorder=Recorder())
        assert absorbed == [("rec", trials)]
        assert absorbed[0][1] is trials

    def test_trials_statistically_independent(self):
        def trial(seeds: SeedSequence, index: int) -> float:
            return seeds.trial_stream("x", index).random()

        outcomes = run_trials("t", trial, 50, seed=1).outcomes
        assert len(set(outcomes)) == 50


class TestTrialSet:
    def test_map(self):
        trials = TrialSet("t", outcomes=[1, 2, 3])
        assert trials.map(lambda x: x * 2.0) == [2.0, 4.0, 6.0]

    def test_success_estimate(self):
        trials = TrialSet("t", outcomes=[1, 2, 3, 4])
        est = trials.success_estimate(lambda x: x % 2 == 0)
        assert est.successes == 2
        assert est.trials == 4

    def test_count_distribution(self):
        trials = TrialSet("t", outcomes=[3, 5, 4])
        dist = trials.count_distribution(lambda x: x, total=5)
        assert dist.mean == pytest.approx(4.0)


class TestTrialTiming:
    def test_serial_trials_record_wall_times(self):
        trial_set = run_trials(
            "timed", lambda seeds, i: i, 4, seed=3
        )
        assert len(trial_set.trial_seconds) == 4
        assert all(s >= 0.0 for s in trial_set.trial_seconds)

    def test_timing_summary_reports_quantiles(self):
        trial_set = TrialSet(
            label="t",
            outcomes=[0, 1, 2, 3],
            trial_seconds=[0.1, 0.2, 0.3, 0.4],
        )
        summary = trial_set.timing_summary()
        assert summary["count"] == 4
        assert summary["mean_s"] == pytest.approx(0.25)
        assert summary["p50_s"] == pytest.approx(0.25)
        assert summary["p95_s"] == pytest.approx(0.385)

    def test_timing_excluded_from_equality(self):
        a = TrialSet(label="t", outcomes=[1], trial_seconds=[0.1])
        b = TrialSet(label="t", outcomes=[1], trial_seconds=[9.9])
        assert a == b
