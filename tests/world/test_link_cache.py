"""The per-pass link cache must be invisible: bit-identical results.

Every test runs the same seeded pass twice — cache on, cache off — and
asserts the full :class:`PassResult` (trace, timings, coverage) is
equal. The cache is a pure memo plus a provably-sound short-circuit,
so any observable difference is a bug.
"""

import dataclasses

import pytest

import repro.world.simulation as simulation
from repro.core.calibration import PaperSetup
from repro.faults import AntennaFault, FaultPlan, ReaderCrash
from repro.obs.recorder import Recorder
from repro.obs.records import DwellLinkRecord
from repro.rf.geometry import Vec3
from repro.rf.materials import BODY
from repro.sim.rng import SeedSequence
from repro.world.motion import LinearPass
from repro.world.objects import BoxFace
from repro.world.portal import (
    dual_antenna_portal,
    dual_reader_portal,
    failover_portal,
    single_antenna_portal,
)
from repro.world.scenarios.human_tracking import build_walk
from repro.world.scenarios.object_tracking import build_box_cart
from repro.world.scenarios.read_range import build_tag_plane
from repro.world.simulation import (
    CarrierGroup,
    Occluder,
    PassLinkCache,
    PortalPassSimulator,
)


def _sim(portal, use_link_cache, recorder=None):
    setup = PaperSetup()
    return PortalPassSimulator(
        portal=portal,
        env=setup.env,
        params=setup.params,
        use_link_cache=use_link_cache,
        recorder=recorder,
    )


def _assert_parity(portal, carriers, trials=2, fault_plan=None):
    cached = _sim(portal, True)
    uncached = _sim(portal, False)
    seeds = SeedSequence(20070625)
    for trial in range(trials):
        a = cached.run_pass(carriers, seeds, trial, fault_plan=fault_plan)
        b = uncached.run_pass(carriers, seeds, trial, fault_plan=fault_plan)
        assert a == b
    assert cached._last_cache_stats is not None
    assert uncached._last_cache_stats is None
    return cached._last_cache_stats


class TestCacheParity:
    def test_moving_box_cart(self):
        carrier, _ = build_box_cart([BoxFace.FRONT], box_count=4)
        _assert_parity(single_antenna_portal(), [carrier])

    def test_stationary_plane_hits_geometry_cache(self):
        carrier = build_tag_plane(3.0)
        stats = _assert_parity(single_antenna_portal(), [carrier], trials=1)
        # A stationary carrier revisits the same position every round:
        # after the first round every geometry lookup must hit.
        assert stats["geometry_hits"] > 0

    def test_occluded_walk(self):
        carrier, _ = build_walk(2, ["front", "back"])
        _assert_parity(single_antenna_portal(), [carrier])

    def test_dual_antenna_portal(self):
        carrier, _ = build_box_cart(
            [BoxFace.FRONT, BoxFace.SIDE_CLOSER], box_count=2
        )
        _assert_parity(dual_antenna_portal(), [carrier])

    def test_dual_reader_interference(self):
        carrier, _ = build_walk(1, ["front"])
        _assert_parity(dual_reader_portal(dense_reader_mode=False), [carrier])

    def test_faulted_pass_with_failover(self):
        carrier, _ = build_walk(1, ["front"])
        duration = carrier.motion.duration_s
        plan = FaultPlan(
            crashes=(ReaderCrash("reader-0", 0.05 * duration, None),)
        )
        _assert_parity(failover_portal(), [carrier], fault_plan=plan)

    def test_fading_cache_exercised(self):
        carrier, _ = build_box_cart([BoxFace.FRONT], box_count=4)
        stats = _assert_parity(single_antenna_portal(), [carrier], trials=1)
        assert stats["fading_misses"] > 0
        # Rounds are much shorter than the fading coherence distance at
        # cart speed, so repeated draws in the same cell must hit.
        assert stats["fading_hits"] > stats["fading_misses"]

    def test_short_circuit_fires_on_distant_tags(self):
        # 9 m with metal-content boxes: most dwells cannot possibly
        # energize the far tags, so the short-circuit must engage.
        carrier, _ = build_box_cart([BoxFace.SIDE_FARTHER], box_count=4)
        stats = _assert_parity(single_antenna_portal(), [carrier], trials=1)
        assert stats["short_circuits"] > 0

    @pytest.mark.parametrize("distance_m", [1.0, 2.0, 3.0])
    def test_occluder_on_another_carrier_crosses_stationary_plane(
        self, distance_m
    ):
        # The tags never move, but a body riding its own carrier walks
        # out of their sight lines: the cache key must see it move.
        plane = build_tag_plane(distance_m)
        walker = CarrierGroup(
            motion=LinearPass(
                start_position=Vec3(0.0, 1.0, distance_m / 2.0),
                velocity=Vec3(1.0, 0.0, 0.0),
                duration_s=plane.motion.duration_s,
            ),
            occluders=[Occluder(Vec3.zero(), 0.25, BODY)],
        )
        _assert_parity(single_antenna_portal(), [plane, walker], trials=5)


def _stationary_stats(portal, fault_plan=None, distance_m=2.0):
    stats = _assert_parity(
        portal, [build_tag_plane(distance_m)], fault_plan=fault_plan
    )
    # A stationary plane repeats its link states round after round, so
    # the composed layer must answer some evaluations.
    assert stats["composed_hits"] > 0
    assert stats["composed_misses"] > 0
    return stats


def _plane_scene():
    return single_antenna_portal(), [build_tag_plane(3.0)], None


def _walk_scene():
    carrier, _ = build_walk(1, ["front", "back"])
    return single_antenna_portal(), [carrier], None


def _faulted_cart_scene():
    carrier, _ = build_box_cart([BoxFace.FRONT])
    plan = FaultPlan(
        antenna_faults=(
            AntennaFault("reader-0", "ant-0", 1.0, 2.5, gain_penalty_db=6.0),
        )
    )
    return dual_antenna_portal(), [carrier], plan


#: Record fields fixed before the fading draw; a short-circuited record
#: stops there, the reference's goes on to compose the budget.
_LINK_INPUTS = tuple(
    f.name
    for f in dataclasses.fields(DwellLinkRecord)
    if f.name
    not in {
        "fading_db",
        "forward_power_dbm",
        "forward_margin_db",
        "reverse_power_dbm",
        "reverse_margin_db",
        "energized",
        "short_circuited",
    }
)


class TestComposedLayer:
    def test_counters_keep_their_per_evaluation_meaning(self):
        stats = _stationary_stats(single_antenna_portal())
        assert stats["composed_hits"] > stats["composed_misses"]
        lookups = stats["geometry_hits"] + stats["geometry_misses"]
        assert stats["composed_hits"] + stats["composed_misses"] == lookups
        # Every replay stands for a fading hit or a short-circuit that
        # the full evaluation would have counted.
        assert (
            stats["fading_hits"] + stats["fading_misses"] + stats["short_circuits"]
            == lookups
        )

    @pytest.mark.parametrize(
        "scene, exercised",
        [
            (_plane_scene, ()),
            # Bodies block sight lines, short-circuit the blocked tags
            # and reflect behind others (a bonus over the 30 dBm port).
            (
                _walk_scene,
                (
                    lambda r: r.short_circuited,
                    lambda r: r.obstruction_db > 0.0,
                    lambda r: r.tx_power_dbm > 30.0,
                ),
            ),
            (_faulted_cart_scene, (lambda r: r.fault_loss_db > 0.0,)),
        ],
        ids=["plane", "walk", "faulted_cart"],
    )
    def test_recorded_parity(self, scene, exercised):
        portal, carriers, plan = scene()
        seeds = SeedSequence(20070625)
        observations = []
        for use_link_cache in (True, False):
            sim = _sim(portal, use_link_cache, Recorder(capture_link_budget=True))
            run = sim.run_pass(carriers, seeds, 0, fault_plan=plan)
            observations.append(run.obs)
        cached, oracle = observations
        assert cached.truncated_link_records == oracle.truncated_link_records == 0
        assert len(cached.link_records) == len(oracle.link_records)
        for seen in exercised:
            assert any(seen(r) for r in cached.link_records)
        for mine, ref in zip(cached.link_records, oracle.link_records):
            if not mine.short_circuited:
                assert mine == ref
                continue
            # The reference draws fading anyway; every input before the
            # draw must agree, and the tag must stay dark.
            for name in _LINK_INPUTS:
                assert getattr(mine, name) == getattr(ref, name), name
            assert not ref.energized
        # Replays are stamped with their own round's time.
        assert len({r.time for r in cached.link_records}) > 1

    def test_non_drm_dual_reader_interference_per_dwell(self):
        stats = _stationary_stats(dual_reader_portal(dense_reader_mode=False))
        # Interference changes per dwell, so some rounds must miss the
        # stored state even though the geometry hit.
        assert stats["composed_misses"] > stats["geometry_misses"]

    def test_detuned_antenna_fault_loss(self):
        plan = FaultPlan(
            antenna_faults=(
                AntennaFault("reader-0", "ant-0", 0.1, 0.3, gain_penalty_db=6.0),
            )
        )
        stats = _stationary_stats(single_antenna_portal(), fault_plan=plan)
        assert stats["composed_misses"] > stats["geometry_misses"]

    def test_failover_takeover(self):
        plan = FaultPlan(crashes=(ReaderCrash("reader-0", 0.05, None),))
        _stationary_stats(failover_portal(), fault_plan=plan)

    def test_compose_link_called_once_per_link_state(self, monkeypatch):
        calls = []
        real = simulation.compose_link

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(simulation, "compose_link", counting)
        plane = build_tag_plane(3.0)
        sim = _sim(single_antenna_portal(), True)
        result = sim.run_pass([plane], SeedSequence(20070625), 0)
        stats = sim._last_cache_stats
        assert result.rounds > 1
        # One antenna, one reader, no interference and no faults: one
        # link state per tag that is not short-circuited.
        assert len(calls) == len(plane.tags) - stats["short_circuits"] > 0
        assert stats["composed_misses"] == len(plane.tags)


class TestSceneSnapshot:
    @pytest.mark.parametrize("use_link_cache", [True, False])
    def test_each_carrier_placed_once_per_round(self, monkeypatch, use_link_cache):
        carrier, _ = build_box_cart([BoxFace.FRONT, BoxFace.SIDE_CLOSER])
        calls = []
        real = LinearPass.position_at

        def counting(motion, t):
            calls.append(t)
            return real(motion, t)

        monkeypatch.setattr(LinearPass, "position_at", counting)
        result = _sim(dual_antenna_portal(), use_link_cache).run_pass(
            [carrier], SeedSequence(20070625), 0
        )
        assert 0 < len(calls) <= result.rounds

    def test_reference_traces_each_evaluation_once(self, monkeypatch):
        carrier, _ = build_walk(1, ["front", "back"])
        calls = []
        real = simulation.segment_sphere_chord_length

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(simulation, "segment_sphere_chord_length", counting)
        sim = _sim(single_antenna_portal(), False, Recorder(capture_link_budget=True))
        obs = sim.run_pass([carrier], SeedSequence(20070625), 0).obs
        assert obs.truncated_link_records == 0
        assert len(obs.link_records) > 0
        assert len(calls) == len(carrier.occluders) * len(obs.link_records)


class TestCacheObject:
    def test_stats_shape(self):
        cache = PassLinkCache()
        stats = cache.stats()
        assert set(stats) == {
            "geometry_hits",
            "geometry_misses",
            "composed_hits",
            "composed_misses",
            "fading_hits",
            "fading_misses",
            "short_circuits",
        }
        assert all(v == 0 for v in stats.values())

    def test_default_simulator_uses_cache(self):
        sim = PortalPassSimulator(portal=single_antenna_portal())
        assert sim.use_link_cache is True
