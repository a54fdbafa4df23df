"""Compiled scenes: what repeated passes over one carrier set share.

A :class:`CompiledScene` holds the seed-independent tables of a pass —
EPC index, coupling and detuning penalties and, for a static scene,
the geometry terms of each link — so a task running many trials of one
scene derives them once. Every result must stay bit-identical to
compiling per call and to the uncached reference.
"""

import dataclasses
import pickle

import pytest

import repro.world.simulation as simulation
from repro.core.calibration import PaperSetup
from repro.core.experiment import run_trials
from repro.core.parallel import PassTrialTask
from repro.faults import FaultPlan, ReaderCrash
from repro.reader.backend import ObjectRegistry, TrackedObject
from repro.sim.rng import SeedSequence
from repro.world.humans import HumanTagPlacement
from repro.world.motion import StationaryPlacement
from repro.world.portal import failover_portal, single_antenna_portal
from repro.world.scenarios.catalog import SCENES
from repro.world.scenarios.fault_injection import (
    CrashPlanFactory,
    SupervisedPassTask,
    run_supervised_pass,
)
from repro.world.scenarios.human_tracking import build_walk
from repro.world.scenarios.read_range import PAPER_REPETITIONS, build_tag_plane
from repro.world.simulation import CompiledScene, PortalPassSimulator

SEED = 20070625

STATIONARY_SCENES = sorted(
    name
    for name, scene in SCENES.items()
    if all(
        isinstance(c.motion, StationaryPlacement)
        for c in scene.build().carriers
    )
)


def _copy(simulator, use_link_cache):
    return PortalPassSimulator(
        portal=simulator.portal,
        env=simulator.env,
        params=simulator.params,
        timing=simulator.timing,
        use_link_cache=use_link_cache,
    )


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_catalog_has_a_stationary_scene():
    assert STATIONARY_SCENES


class TestParity:
    @pytest.mark.parametrize("name", STATIONARY_SCENES)
    def test_compiled_task_matches_reference_and_per_call_compile(self, name):
        task = SCENES[name].build()
        trials = max(3, SCENES[name].trials)
        per_call = _copy(task.simulator, True)
        reference = _copy(task.simulator, False)
        seeds = SeedSequence(SEED)
        for trial in range(trials):
            compiled = task(seeds, trial)
            compiled_stats = task.simulator._last_cache_stats
            assert compiled == reference.run_pass(
                list(task.carriers), seeds, trial
            )
            assert compiled == per_call.run_pass(
                list(task.carriers), seeds, trial
            )
            assert compiled_stats == per_call._last_cache_stats
        assert task._scene is not None
        assert task._scene.geometry


class TestCompiledOnce:
    def test_figure2_distance_computes_each_link_once(self, monkeypatch):
        link_terms = _counting(monkeypatch, simulation, "compute_link_terms")
        coupling = _counting(
            monkeypatch, simulation.PortalPassSimulator, "_coupling_table"
        )
        plane = build_tag_plane(3.0)
        task = PassTrialTask(
            simulator=PaperSetup().simulator(single_antenna_portal()),
            carriers=(plane,),
        )
        trials = run_trials("plane", task, PAPER_REPETITIONS, seed=SEED)
        assert len(trials.outcomes) == PAPER_REPETITIONS
        assert len(link_terms) == len(plane.tags)
        assert len(coupling) == 1

    def test_per_call_compile_recomputes_every_pass(self, monkeypatch):
        link_terms = _counting(monkeypatch, simulation, "compute_link_terms")
        plane = build_tag_plane(3.0)
        simulator = PaperSetup().simulator(single_antenna_portal())
        for trial in range(3):
            simulator.run_pass([plane], SeedSequence(SEED), trial)
        assert len(link_terms) == 3 * len(plane.tags)

    def test_dipole_axes_taken_once(self):
        task = SCENES["cart-front"].build()
        scene = task.simulator.compile(task.carriers)
        assert scene.axes == {
            tag.epc: (
                tag.world_dipole_axis().x,
                tag.world_dipole_axis().y,
                tag.world_dipole_axis().z,
            )
            for _, tag in scene.tags
        }

    def test_moving_scene_keeps_no_geometry(self):
        task = SCENES["cart-front"].build()
        task(SeedSequence(SEED), 0)
        assert task._scene.static is False
        assert task._scene.geometry is None


class TestTracedNames:
    """The benchmark's ``rf.link_terms`` and ``rf.chord`` spans bind
    ``simulation.compute_link_terms`` and
    ``simulation.segment_sphere_chord_length``: one call per geometry
    miss, and one per occluder per miss. The counts per pass are pinned
    to the values the vector-form kernel gave."""

    #: scene -> (per-trial compute_link_terms calls, occluders per miss).
    PINNED = {
        "failover-walk": ((1441, 1535), 1),
        "cart-front": ((6411,), 12),
    }

    @staticmethod
    def _failover_walk():
        """A tagged walk through the failover portal; reader-0 crashes
        for the middle 40% of the pass."""
        carrier, _ = build_walk(1, [HumanTagPlacement.SIDE_CLOSER])
        duration = carrier.motion.duration_s
        plan = FaultPlan(
            crashes=(ReaderCrash("reader-0", 0.3 * duration, 0.7 * duration),)
        )
        return PassTrialTask(
            simulator=PaperSetup().simulator(failover_portal()),
            carriers=(carrier,),
            fault_plan=plan,
        )

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_calls_per_pass(self, monkeypatch, name):
        link_terms = _counting(monkeypatch, simulation, "compute_link_terms")
        chords = _counting(
            monkeypatch, simulation, "segment_sphere_chord_length"
        )
        build = (
            self._failover_walk
            if name == "failover-walk"
            else SCENES[name].build
        )
        task = build()
        misses, occluders = self.PINNED[name]
        for trial, expected in enumerate(misses):
            del link_terms[:], chords[:]
            task(SeedSequence(SEED), trial)
            stats = task.simulator._last_cache_stats
            assert len(link_terms) == stats["geometry_misses"] == expected
            assert len(chords) == occluders * expected


class TestTaskPickle:
    def test_pickle_size_unchanged_after_a_pass(self):
        # A plain pass task and a supervised one, and the link models
        # each simulator holds: a pass memoizes nothing into them.
        for task in (SCENES["tag-plane-3m"].build(), TestSupervisedTask._task()):
            env = task.simulator.env
            models = (
                env,
                env.channel,
                env.channel.path_loss,
                env.channel.fading,
                env.reader_antenna,
                env.tag_antenna,
            )
            before = pickle.dumps(task)
            models_before = [pickle.dumps(model) for model in models]
            task(SeedSequence(SEED), 0)
            assert task._scene is not None
            after = pickle.dumps(task)
            assert len(after) == len(before)
            assert pickle.loads(after)._scene is None
            assert [pickle.dumps(model) for model in models] == models_before

    def test_replace_and_equality_ignore_the_scene(self):
        task = SCENES["tag-plane-3m"].build()
        fresh = dataclasses.replace(task)
        task(SeedSequence(SEED), 0)
        assert dataclasses.replace(task)._scene is None
        assert task == fresh

    def test_parent_never_compiles_a_fanned_out_call(self):
        task = SCENES["tag-plane-3m"].build()
        parallel = run_trials("plane", task, 4, seed=SEED, workers=2)
        assert task._scene is None
        serial = run_trials(
            "plane", SCENES["tag-plane-3m"].build(), 4, seed=SEED
        )
        assert parallel.outcomes == serial.outcomes


class TestSupervisedTask:
    """A supervised-pass task compiles its scene once per process, like
    a plain pass task, and its passes match compiling per call."""

    @staticmethod
    def _task():
        carrier, humans = build_walk(1, [HumanTagPlacement.FRONT])
        registry = ObjectRegistry()
        registry.register(
            TrackedObject("subject-0", frozenset({humans[0].tags[0].epc}))
        )
        return SupervisedPassTask(
            simulator=PaperSetup().simulator(failover_portal()),
            carriers=(carrier,),
            registry=registry,
            object_id="subject-0",
            plan_factory=CrashPlanFactory(rate=1.0),
        )

    def test_compiles_once_and_matches_per_call_compile(self, monkeypatch):
        compiles = _counting(
            monkeypatch, simulation.PortalPassSimulator, "compile"
        )
        task = self._task()
        (carrier,) = task.carriers
        seeds = SeedSequence(SEED)
        outcomes = [task(seeds, trial) for trial in range(3)]
        assert len(compiles) == 1
        for trial, outcome in enumerate(outcomes):
            plan = task.plan_factory(seeds, trial, carrier.motion.duration_s)
            assert outcome == run_supervised_pass(
                task.simulator,
                [carrier],
                task.registry,
                task.object_id,
                seeds,
                trial,
                plan,
            )
        assert task.scene() is task._scene

    def test_scene_stays_out_of_the_pickle(self):
        task = self._task()
        before = pickle.dumps(task)
        task(SeedSequence(SEED), 0)
        after = pickle.dumps(task)
        assert len(after) == len(before)
        assert pickle.loads(after)._scene is None

    def test_call_is_its_own_method(self):
        # The benchmark traces both tasks' __call__ as one pass each.
        assert SupervisedPassTask.__call__ is not PassTrialTask.__call__


class TestSnapshot:
    def test_scene_from_another_simulator_raises(self):
        plane = build_tag_plane(3.0)
        owner = PaperSetup().simulator(single_antenna_portal())
        other = _copy(owner, True)
        scene = owner.compile([plane])
        assert isinstance(scene, CompiledScene)
        with pytest.raises(ValueError, match="another simulator"):
            other.run_pass(scene, SeedSequence(SEED), 0)

    def test_mutated_carrier_list_is_seen_by_the_next_call(self):
        near = build_tag_plane(1.0)
        simulator = PaperSetup().simulator(single_antenna_portal())
        carriers = [near]
        first = simulator.run_pass(carriers, SeedSequence(SEED), 0)
        assert first.read_epcs == {t.epc for t in near.tags}
        carriers[0] = dataclasses.replace(near, tags=near.tags[:5])
        second = simulator.run_pass(carriers, SeedSequence(SEED), 0)
        assert second.read_epcs == {t.epc for t in near.tags[:5]}
        dropped = carriers[0].tags.pop()
        third = simulator.run_pass(carriers, SeedSequence(SEED), 0)
        assert third.read_epcs == {t.epc for t in near.tags[:4]}
        assert dropped.epc not in third.read_epcs

    def test_compile_rejects_what_run_pass_rejects(self):
        simulator = PaperSetup().simulator(single_antenna_portal())
        plane = build_tag_plane(1.0)
        with pytest.raises(ValueError, match="duplicate EPC"):
            simulator.compile([plane, plane])
        with pytest.raises(ValueError, match="no tags"):
            simulator.compile(
                [dataclasses.replace(plane, tags=[])]
            )
