"""Determinism parity: parallel runs must equal serial runs, bit for bit.

Every scenario entry point is run twice with a small configuration —
once with ``workers=1`` and once with a process pool — and the results
compared with ``==``. Because trial streams are derived statelessly
from ``(root_seed, label, trial)``, fan-out must not perturb a single
outcome or aggregate. These tests are the acceptance contract for the
parallel engine.
"""

from repro.world.humans import HumanTagPlacement
from repro.world.objects import BoxFace
from repro.world.scenarios.fault_injection import (
    run_fault_injection_experiment,
    run_fault_rate_sweep,
)
from repro.world.scenarios.human_tracking import run_table2_experiment
from repro.world.scenarios.materials_study import run_materials_study
from repro.world.scenarios.object_tracking import (
    TABLE3_CASES,
    run_object_redundancy_experiment,
    run_table1_experiment,
)
from repro.world.scenarios.orientation_spacing import (
    run_orientation_spacing_experiment,
)
from repro.world.scenarios.read_range import run_read_range_experiment
from repro.world.scenarios.reader_redundancy import (
    run_reader_redundancy_experiment,
)

REPS = 3
SEED = 424207


class TestScenarioParity:
    def test_table1_object_tracking(self):
        kwargs = dict(
            locations=[BoxFace.FRONT], repetitions=REPS, seed=SEED
        )
        serial = run_table1_experiment(workers=1, **kwargs)
        parallel = run_table1_experiment(workers=2, **kwargs)
        assert parallel == serial

    def test_object_redundancy(self):
        kwargs = dict(
            cases=TABLE3_CASES[:1], repetitions=REPS, seed=SEED
        )
        serial = run_object_redundancy_experiment(workers=1, **kwargs)
        parallel = run_object_redundancy_experiment(workers=2, **kwargs)
        assert parallel == serial

    def test_table2_human_tracking(self):
        kwargs = dict(
            placements=[HumanTagPlacement.FRONT],
            repetitions=REPS,
            seed=SEED,
        )
        serial = run_table2_experiment(workers=1, **kwargs)
        parallel = run_table2_experiment(workers=2, **kwargs)
        assert parallel == serial

    def test_read_range(self):
        kwargs = dict(distances_m=[3.0], repetitions=REPS, seed=SEED)
        serial = run_read_range_experiment(workers=1, **kwargs)
        parallel = run_read_range_experiment(workers=2, **kwargs)
        assert parallel == serial

    def test_materials_study(self):
        kwargs = dict(cases=["cardboard"], repetitions=REPS, seed=SEED)
        serial = run_materials_study(workers=1, **kwargs)
        parallel = run_materials_study(workers=2, **kwargs)
        assert parallel == serial

    def test_orientation_spacing(self):
        from repro.world.tags import TagOrientation

        kwargs = dict(
            spacings_m=[0.1],
            orientations=[TagOrientation.CASE_2_HORIZONTAL_FACING],
            repetitions=REPS,
            seed=SEED,
        )
        serial = run_orientation_spacing_experiment(workers=1, **kwargs)
        parallel = run_orientation_spacing_experiment(workers=2, **kwargs)
        assert parallel == serial

    def test_reader_redundancy(self):
        kwargs = dict(
            placement=HumanTagPlacement.FRONT, repetitions=REPS, seed=SEED
        )
        serial = run_reader_redundancy_experiment(workers=1, **kwargs)
        parallel = run_reader_redundancy_experiment(workers=2, **kwargs)
        assert parallel == serial

    def test_fault_injection(self):
        kwargs = dict(
            placement=HumanTagPlacement.FRONT, repetitions=REPS, seed=SEED
        )
        serial = run_fault_injection_experiment(workers=1, **kwargs)
        parallel = run_fault_injection_experiment(workers=2, **kwargs)
        assert parallel == serial

    def test_fault_rate_sweep_three_workers(self):
        # One case at a higher worker count exercises uneven chunking.
        kwargs = dict(
            rates=[0.5],
            placement=HumanTagPlacement.FRONT,
            repetitions=4,
            seed=SEED,
        )
        serial = run_fault_rate_sweep(workers=1, **kwargs)
        parallel = run_fault_rate_sweep(workers=3, **kwargs)
        assert parallel == serial


class TestSweepTrialOrdering:
    """The pool path of ``run_trials`` must keep per-trial
    ``trial_seconds`` aligned with outcomes in trial-index order,
    exactly like the serial loop — ``TrialSet`` excludes timings from
    ``==``, so this is pinned explicitly. A sweep is one ``run_trials``
    call per point, so each point is checked the same way."""

    @staticmethod
    def _sweep(workers):
        from repro.core.experiment import run_trials
        from repro.world.scenarios.catalog import SCENES

        task = SCENES["walk-front"].build()
        return {
            point: run_trials(
                f"ordering@{point}",
                task,
                repetitions=5,
                seed=SEED ^ point,
                workers=workers,
            )
            for point in (1, 2, 3)
        }

    def test_parallel_sweep_preserves_trial_order(self):
        serial = self._sweep(workers=1)
        parallel = self._sweep(workers=2)
        assert parallel == serial
        for point, serial_set in serial.items():
            parallel_set = parallel[point]
            # One wall time per trial, aligned with the outcome at the
            # same index, for every sweep point.
            assert len(parallel_set.trial_seconds) == len(
                parallel_set.outcomes
            )
            assert parallel_set.outcomes == serial_set.outcomes
            assert all(s >= 0.0 for s in parallel_set.trial_seconds)
