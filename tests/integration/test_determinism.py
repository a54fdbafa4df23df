"""Seed determinism: every scenario entry point is a pure function of
its seed.

The reliability numbers in the paper tables only mean something if a
run can be reproduced bit-for-bit, so each experiment harness is run
twice with the same seed and compared with ``==`` — any hidden global
state, wall-clock dependence, or dict-ordering leak fails here. The
complementary half pins that the seed actually *matters*: different
seeds must steer the slotted-ALOHA draws onto different slot outcomes,
otherwise "95% confidence interval over N trials" is theatre.
"""

import pytest

from repro.obs.explain import run_instrumented_pass
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
from repro.world.tags import TagOrientation

REPS = 2
SEED = 160493

#: Catalog scenes re-run instrumented: one cart, one walk.
SCENES = ["cart-front", "walk-front"]


def _entry_points():
    """Every scenario harness, with a small but non-trivial config."""
    return [
        (
            "table1",
            run_table1_experiment,
            dict(locations=[BoxFace.FRONT], repetitions=REPS),
        ),
        (
            "object_redundancy",
            run_object_redundancy_experiment,
            dict(cases=TABLE3_CASES[:1], repetitions=REPS),
        ),
        (
            "table2",
            run_table2_experiment,
            dict(placements=[HumanTagPlacement.FRONT], repetitions=REPS),
        ),
        (
            "read_range",
            run_read_range_experiment,
            dict(distances_m=[3.0], repetitions=REPS),
        ),
        (
            "materials",
            run_materials_study,
            dict(cases=["cardboard"], repetitions=REPS),
        ),
        (
            "orientation_spacing",
            run_orientation_spacing_experiment,
            dict(
                spacings_m=[0.1],
                orientations=[TagOrientation.CASE_2_HORIZONTAL_FACING],
                repetitions=REPS,
            ),
        ),
        (
            "reader_redundancy",
            run_reader_redundancy_experiment,
            dict(placement=HumanTagPlacement.FRONT, repetitions=REPS),
        ),
        (
            "fault_injection",
            run_fault_injection_experiment,
            dict(placement=HumanTagPlacement.FRONT, repetitions=REPS),
        ),
        (
            "fault_rate_sweep",
            run_fault_rate_sweep,
            dict(
                rates=[0.5],
                placement=HumanTagPlacement.FRONT,
                repetitions=REPS,
            ),
        ),
    ]


ENTRY_POINTS = _entry_points()
ENTRY_IDS = [name for name, _, _ in ENTRY_POINTS]


class TestSameSeedIsIdentical:
    @pytest.mark.parametrize(
        ("name", "runner", "kwargs"), ENTRY_POINTS, ids=ENTRY_IDS
    )
    def test_entry_point_repeats_bit_identically(self, name, runner, kwargs):
        first = runner(seed=SEED, **kwargs)
        second = runner(seed=SEED, **kwargs)
        assert first == second

    @pytest.mark.parametrize("scenario", SCENES)
    def test_instrumented_pass_repeats_bit_identically(self, scenario):
        _, first, obs_a = run_instrumented_pass(scenario, SEED)
        _, second, obs_b = run_instrumented_pass(scenario, SEED)
        # The full PassResult — read set, rounds, duration — matches...
        assert first == second
        # ...and so does every captured record, down to the slot level.
        assert obs_a.tag_outcomes == obs_b.tag_outcomes
        assert obs_a.slot_records == obs_b.slot_records
        assert obs_a.link_records == obs_b.link_records


class TestDifferentSeedsDiverge:
    @pytest.mark.parametrize("scenario", SCENES)
    def test_slot_outcomes_differ_across_seeds(self, scenario):
        """The seed must reach the ALOHA slot draws: two seeds may not
        replay the same slot-outcome tape."""
        _, _, obs_a = run_instrumented_pass(scenario, SEED)
        _, _, obs_b = run_instrumented_pass(scenario, SEED + 1)
        tape_a = [(r.slot_index, r.outcome, r.responders) for r in obs_a.slot_records]
        tape_b = [(r.slot_index, r.outcome, r.responders) for r in obs_b.slot_records]
        assert tape_a != tape_b

    def test_trial_index_reaches_slot_outcomes(self):
        """Within one seed, the trial index alone must also decorrelate
        the draws — trials are not replays of trial 0."""
        _, _, obs_a = run_instrumented_pass("cart-front", SEED, trial=0)
        _, _, obs_b = run_instrumented_pass("cart-front", SEED, trial=1)
        tape_a = [(r.slot_index, r.outcome) for r in obs_a.slot_records]
        tape_b = [(r.slot_index, r.outcome) for r in obs_b.slot_records]
        assert tape_a != tape_b
