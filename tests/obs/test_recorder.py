"""Recorder behaviour: zero-cost off, non-perturbation, aggregation."""

import copy
import pickle

import pytest

from repro.core.calibration import PaperSetup
from repro.core.experiment import run_trials
from repro.core.parallel import PassTrialTask
from repro.obs import Recorder, TracingSeedSequence
from repro.obs import recorder as recorder_module
from repro.protocol.epc import EpcFactory
from repro.rf.geometry import Vec3
from repro.sim.events import SlotOutcome
from repro.sim.rng import SeedSequence
from repro.world.humans import HumanTagPlacement
from repro.world.motion import LinearPass, StationaryPlacement
from repro.world.objects import BoxFace
from repro.world.portal import single_antenna_portal
from repro.world.scenarios.fault_injection import run_fault_injection_experiment
from repro.world.scenarios.human_tracking import run_table2_experiment
from repro.world.scenarios.object_tracking import (
    TABLE3_CASES,
    run_object_redundancy_experiment,
    run_table1_experiment,
)
from repro.world.scenarios.read_range import run_read_range_experiment
from repro.world.scenarios.reader_redundancy import (
    run_reader_redundancy_experiment,
)
from repro.world.simulation import CarrierGroup
from repro.world.tags import Tag, TagOrientation

SETUP = PaperSetup()


def _carrier(z=0.5, moving=False):
    tag = Tag(
        epc=EpcFactory().next_epc().to_hex(),
        local_position=Vec3(0.0, 1.0, 0.0),
        orientation=TagOrientation.CASE_2_HORIZONTAL_FACING,
    )
    if moving:
        motion = LinearPass.centered_lane_pass(
            lane_distance_m=1.0, speed_mps=1.0, half_span_m=1.5, height_m=0.0
        )
    else:
        motion = StationaryPlacement(Vec3(0.0, 0.0, z), duration_s=0.5)
    return CarrierGroup(motion=motion, tags=[tag])


def _sim(recorder=None):
    return SETUP.simulator(single_antenna_portal(), recorder)


class TestZeroCostOff:
    def test_no_recorder_means_no_observation(self):
        result = _sim().run_pass([_carrier()], SeedSequence(3), 0)
        assert result.obs is None


class TestNonPerturbation:
    def test_recording_never_changes_outcomes(self):
        """Hooks consume no randomness: results are bit-identical with
        recording on (even at full capture) or off."""
        carrier = _carrier(moving=True)
        plain = _sim().run_pass([carrier], SeedSequence(9), 2)
        recorder = Recorder(detail=True)
        recorded = _sim(recorder).run_pass([carrier], SeedSequence(9), 2)
        assert recorded.read_epcs == plain.read_epcs
        assert [e.time for e in recorded.trace] == [
            e.time for e in plain.trace
        ]
        assert recorded.rounds == plain.rounds

    def test_tracing_seeds_are_the_plain_seeds(self):
        recorder = Recorder(detail=True)
        recording = recorder.begin_pass(0)
        traced = TracingSeedSequence(5, recording)
        plain = SeedSequence(5)
        assert traced.stream("x").seed == plain.stream("x").seed
        assert (
            traced.trial_stream("y", 3).seed == plain.trial_stream("y", 3).seed
        )

    def test_tracing_dedupes_rederivations(self):
        recorder = Recorder(detail=True)
        recording = recorder.begin_pass(0)
        traced = TracingSeedSequence(5, recording)
        traced.stream("x")
        traced.stream("x")
        observation = recording.finalize(
            population=(), read_epcs=set(), first_read_times={},
            read_counts={}, headroom_db=20.0, had_fault_plan=False,
        )
        assert len(observation.rng_records) == 1


class TestObservation:
    def test_observation_pickles(self):
        recorder = Recorder(detail=True)
        result = _sim(recorder).run_pass([_carrier()], SeedSequence(3), 0)
        clone = pickle.loads(pickle.dumps(result.obs))
        assert clone == result.obs

    @pytest.mark.parametrize("detail", [False, True])
    def test_recorder_pickles_as_its_switch_alone(self, detail):
        """A recorder rides inside every trial task's simulator, so what
        it has absorbed must not ship to workers with later tasks."""
        recorder = Recorder(detail=detail)
        trial_set = run_trials(
            "obs-pickle",
            PassTrialTask(simulator=_sim(recorder), carriers=(_carrier(),)),
            2,
            seed=17,
        )
        recorder.absorb_trial_set("obs-pickle", trial_set)
        assert len(recorder.observations) == 2
        assert pickle.dumps(recorder) == pickle.dumps(Recorder(detail=detail))
        clone = pickle.loads(pickle.dumps(recorder))
        assert clone.detail is detail
        assert clone.observations == []
        assert clone.events == []
        # Copies take the same path: an empty recorder, same switch.
        for copied in (copy.copy(recorder), copy.deepcopy(recorder)):
            assert copied.detail is detail
            assert copied.observations == []
            assert copied.trial_sets == {}

    def test_link_record_cap_truncates(self, monkeypatch):
        monkeypatch.setattr(recorder_module, "MAX_LINK_RECORDS_PER_PASS", 5)
        recorder = Recorder(detail=True)
        far = CarrierGroup(
            motion=StationaryPlacement(Vec3(0.0, 0.0, 30.0), duration_s=2.0),
            tags=_carrier().tags,
        )
        result = _sim(recorder).run_pass([far], SeedSequence(3), 0)
        assert len(result.obs.link_records) == 5
        assert result.obs.truncated_link_records > 0

    def test_waterfall_reproduces_forward_power(self):
        """Summing a link record's waterfall terms reproduces the
        recorded forward power exactly — the explain-pipeline invariant."""
        from repro.obs.explain import record_waterfall

        recorder = Recorder(detail=True)
        result = _sim(recorder).run_pass([_carrier()], SeedSequence(3), 0)
        checked = 0
        for record in result.obs.link_records:
            if record.short_circuited:
                continue
            total = sum(value for _, value in record_waterfall(record))
            assert abs(total - record.forward_power_dbm) < 1e-9
            checked += 1
        assert checked > 0


class TestRoundHooks:
    """``round`` reads a round's returned slots; ``idle_round`` takes
    only the empty slots' times and must leave the same trace."""

    A, B = "A" * 24, "B" * 24

    def _slots(self):
        return [
            SlotOutcome(0.1, 0, ()),
            SlotOutcome(0.2, 1, (self.A, self.B)),
            SlotOutcome(0.3, 2, (self.A,)),
            SlotOutcome(0.4, 3, (self.B,), self.B),
        ]

    def test_round_counts_and_records_each_slot(self):
        rec = Recorder(detail=True).begin_pass(7)
        rec.round("reader-0", "ant-0", self._slots())
        obs = rec.finalize((self.A, self.B), {self.B}, {}, {}, 6.0, False)
        # Declaration order (first use), which pickles and digests see.
        assert list(obs.metrics._metrics) == [
            "pass.forward_margin_db",
            "pass.reverse_margin_db",
            "pass.empty_slots",
            "pass.collision_slots",
            "pass.garbled_slots",
            "pass.success_slots",
            "pass.rounds",
            "pass.miss.collision",
            "pass.tags_read",
        ]
        assert [
            (r.trial, r.slot_index, r.responders, r.outcome, r.winner)
            for r in obs.slot_records
        ] == [
            (7, 0, (), "empty", None),
            (7, 1, (self.A, self.B), "collision", None),
            (7, 2, (self.A,), "collision", None),
            (7, 3, (self.B,), "success", self.B),
        ]
        outcome = obs.outcome_for(self.A)
        assert (outcome.collision_slots, outcome.solo_garbled_slots) == (1, 1)

    @pytest.mark.parametrize("detail", [False, True])
    def test_idle_round_matches_a_round_of_empty_slots(self, detail):
        times = [0.5, 0.6, 0.7]
        idle = Recorder(detail=detail).begin_pass(0)
        idle.idle_round("reader-0", "ant-0", times)
        full = Recorder(detail=detail).begin_pass(0)
        full.round(
            "reader-0",
            "ant-0",
            [SlotOutcome(t, i, ()) for i, t in enumerate(times)],
        )
        observations = [
            rec.finalize((self.A,), set(), {}, {}, 6.0, False)
            for rec in (idle, full)
        ]
        assert observations[0] == observations[1]
        assert len(observations[0].slot_records) == (3 if detail else 0)
        assert observations[0].metrics.get("pass.empty_slots").value == 3

    def test_idle_round_without_slots_declares_no_slot_counter(self):
        rec = Recorder().begin_pass(0)
        rec.idle_round("reader-0", "ant-0", [])
        obs = rec.finalize((self.A,), set(), {}, {}, 6.0, False)
        assert obs.metrics.get("pass.empty_slots") is None
        assert obs.metrics.get("pass.rounds").value == 1


class TestAggregation:
    def test_absorb_trial_set_collects_everything(self):
        recorder = Recorder()
        sim = _sim(recorder)
        carrier = _carrier(moving=True)
        trial_set = run_trials(
            "obs-test",
            PassTrialTask(simulator=sim, carriers=(carrier,)),
            3,
            seed=17,
        )
        recorder.absorb_trial_set("obs-test", trial_set)
        assert len(recorder.observations) == 3
        assert recorder.metrics.timer("trial.wall_s").count == 3
        assert recorder.metrics.timer("trial.wall_s[obs-test]").count == 3
        assert recorder.metrics.counter("pass.rounds").value > 0
        assert recorder.trial_sets == {"obs-test": 3}
        assert recorder.events == [
            rec for obs in trial_set.outcomes for rec in obs.obs.records()
        ]

    def test_miss_cause_counts_match_observations(self):
        recorder = Recorder()
        sim = _sim(recorder)
        far = _carrier(z=100.0)
        trial_set = run_trials(
            "obs-far",
            PassTrialTask(simulator=sim, carriers=(far,)),
            2,
            seed=17,
        )
        recorder.absorb_trial_set("obs-far", trial_set)
        counts = recorder.miss_cause_counts()
        assert sum(counts.values()) == 2
        assert counts.get("out_of_zone") == 2


#: (entry point, keyword arguments, passes it runs at repetitions=1).
ENTRY_POINTS = {
    "read_range": (run_read_range_experiment, dict(distances_m=[2.0, 3.0]), 2),
    "table1": (run_table1_experiment, dict(locations=[BoxFace.FRONT]), 1),
    "object_redundancy": (
        run_object_redundancy_experiment,
        dict(
            cases=TABLE3_CASES[:1],
            single_opportunity={BoxFace.FRONT: 0.5},
        ),
        1,
    ),
    "table2": (
        run_table2_experiment, dict(placements=[HumanTagPlacement.FRONT]), 2,
    ),
    "reader_redundancy": (run_reader_redundancy_experiment, {}, 3),
    "fault_injection": (run_fault_injection_experiment, {}, 4),
}


class TestEachTrialSetAbsorbedOnce:
    """A recorder handed to an entry point folds in every pass exactly
    once, on the serial loop and on the pool alike."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_one_observation_and_one_wall_time_per_pass(self, entry, workers):
        run, kwargs, passes = ENTRY_POINTS[entry]
        recorder = Recorder()
        run(repetitions=1, seed=11, workers=workers, recorder=recorder, **kwargs)
        assert len(recorder.observations) == passes
        assert sum(recorder.trial_sets.values()) == passes
        assert recorder.metrics.timer("trial.wall_s").count == passes
