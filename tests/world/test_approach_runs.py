"""Approach runs: a moving scene's rounds that energize nothing, in bulk.

A moving carrier gives its tags a new scene key every round, so every
round evaluates each uninventoried tag's link. Once the Q algorithm
sits at its floor, the rounds in which those links energize no tag run
in one loop (``_idle_run`` with the uninventoried tags) up to the next
edge: a TDMA dwell switch, a fault-timeline segment end, a round the
pass end would truncate, or the first round in which a link energizes.
That round then runs as an inventory round on the links the run
already evaluated, with the co-channel draw it already made. Every
test here checks a scene that puts one of those edges inside a run
against the uncached reference, which runs every round through
``run_inventory_round``, and against a detailed recording, which
takes every round on its own.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.world.simulation as simulation
from repro.core.calibration import PaperSetup
from repro.faults import AntennaFault, FaultPlan, InterferenceBurst, ReaderCrash
from repro.obs.metrics import Counter
from repro.obs.recorder import Recorder
from repro.rf.geometry import Vec3
from repro.sim.rng import SeedSequence
from repro.world.humans import HumanTagPlacement
from repro.world.motion import LinearPass
from repro.world.objects import BoxFace
from repro.world.portal import (
    ANTENNA_HEIGHT_M,
    AntennaInstallation,
    Portal,
    ReaderAssignment,
    dual_antenna_portal,
    failover_portal,
    single_antenna_portal,
)
from repro.world.scenarios.human_tracking import build_walk
from repro.world.scenarios.object_tracking import build_box_cart
from repro.world.simulation import PortalPassSimulator
from tests.hypothesis_budget import examples

SEED = 20070625


def _walker(placements, lane_distance_m=1.0, duration_s=None):
    carrier, _ = build_walk(1, placements)
    motion = LinearPass.centered_lane_pass(
        lane_distance_m=lane_distance_m,
        speed_mps=1.0,
        half_span_m=2.0,
        height_m=0.0,
    )
    if duration_s is not None:
        motion = dataclasses.replace(motion, duration_s=duration_s)
    return dataclasses.replace(carrier, motion=motion)


def _jammed_portal():
    """Two readers without dense-reader mode, 30 m apart.

    The first, at 10 dBm, energizes nothing the walker carries past the
    second, but its carrier raises the second's receive floor, more on
    co-channel rounds: the second reader's read times depend on every
    co-channel draw either reader's runs make on the shared
    interference stream.
    """
    return Portal(
        readers=(
            ReaderAssignment(
                "reader-0",
                (
                    AntennaInstallation(
                        "ant-0", Vec3(-30.0, ANTENNA_HEIGHT_M, 0.0), Vec3.unit_z()
                    ),
                ),
                dense_reader_mode=False,
                tx_power_dbm=10.0,
            ),
            ReaderAssignment(
                "reader-1",
                (
                    AntennaInstallation(
                        "ant-1", Vec3(0.0, ANTENNA_HEIGHT_M, 0.0), Vec3.unit_z()
                    ),
                ),
                dense_reader_mode=False,
            ),
        )
    )


#: A crash with a restart (a fresh session), a silent port and an
#: interference burst, all inside the walker's 4 s pass.
FAULTS = FaultPlan(
    crashes=(ReaderCrash("reader-0", 1.2, 2.0),),
    antenna_faults=(AntennaFault("reader-1", "ant-1", 1.0, 1.6),),
    interference_bursts=(InterferenceBurst(1.5, 2.6, -55.0),),
)

#: The walker's last round starts less than a Query before this end.
TRUNCATED_DURATION_S = 2.5

#: name -> (portal, carriers, fault plan, trials).
SCENES = {
    "walker-faults": lambda: (
        failover_portal(),
        [_walker([HumanTagPlacement.SIDE_CLOSER])],
        FAULTS,
        (0, 1),
    ),
    # Each 0.1 s TDMA dwell cuts the runs of the twelve box tags.
    "cart-tdma": lambda: (
        dual_antenna_portal(),
        [build_box_cart([BoxFace.FRONT])[0]],
        None,
        (0,),
    ),
    # Trial 0's side tag first energizes in the round that starts at
    # 1.2121 s. A burst too faint to matter starts a segment at 1.2092
    # s: the round at 1.2102 s is the segment's first, taken on its own,
    # so a run starts with the energizing round.
    "first-round-energizes": lambda: (
        single_antenna_portal(),
        [_walker([HumanTagPlacement.SIDE_CLOSER])],
        FaultPlan(interference_bursts=(InterferenceBurst(1.2092, 4.0, -120.0),)),
        (0,),
    ),
    # 8 m from the antenna nothing ever energizes: runs last to the
    # round the pass end truncates.
    "truncated-end": lambda: (
        single_antenna_portal(),
        [
            _walker(
                [HumanTagPlacement.SIDE_CLOSER],
                lane_distance_m=8.0,
                duration_s=TRUNCATED_DURATION_S,
            )
        ],
        None,
        (0,),
    ),
    # The side tag is read first; later runs evaluate the other two.
    "three-tags": lambda: (
        single_antenna_portal(),
        [
            _walker(
                [
                    HumanTagPlacement.SIDE_CLOSER,
                    HumanTagPlacement.FRONT,
                    HumanTagPlacement.BACK,
                ]
            )
        ],
        None,
        (0, 1),
    ),
    # Trials 1 and 14 never read the front tag.
    "front-unread": lambda: (
        single_antenna_portal(),
        [_walker([HumanTagPlacement.FRONT])],
        None,
        (1, 14),
    ),
    "jammed-walker": lambda: (
        _jammed_portal(),
        [_walker([HumanTagPlacement.SIDE_CLOSER])],
        None,
        (0, 1),
    ),
}

RECORDINGS = {
    "none": lambda: None,
    "counters": Recorder,
    "detail": lambda: Recorder(detail=True),
}


def _simulator(portal, use_link_cache, recorder):
    setup = PaperSetup().simulator(portal)
    return PortalPassSimulator(
        portal=portal,
        env=setup.env,
        params=setup.params,
        timing=setup.timing,
        use_link_cache=use_link_cache,
        recorder=recorder,
    )


def _passes(portal, carriers, plan, trials, use_link_cache, recording):
    sim = _simulator(portal, use_link_cache, RECORDINGS[recording]())
    results, stats = [], []
    for trial in trials:
        results.append(sim.run_pass(carriers, SeedSequence(SEED), trial, plan))
        stats.append(sim._last_cache_stats)
    return results, stats


def _run(name, use_link_cache, recording="none"):
    return _passes(*SCENES[name](), use_link_cache, recording)


def _counters(result, short_circuits=True):
    """(name, value) of every counter, in declaration order."""
    return [
        (name, metric.value)
        for name, metric in result.obs.metrics._metrics.items()
        if isinstance(metric, Counter)
        and (short_circuits or name != "pass.short_circuits")
    ]


def _histograms(result):
    metrics = result.obs.metrics
    return [
        metrics.get(name)
        for name in ("pass.forward_margin_db", "pass.reverse_margin_db")
    ]


def _watch_runs(monkeypatch):
    """(tags evaluated, rounds, stopped at an energized round) of every
    approach run the cached path takes."""
    runs = []
    real = PortalPassSimulator._idle_run

    def watched(self, *args):
        outcome = real(self, *args)
        tags = args[7]
        if tags is not None:
            runs.append((len(tags), outcome[0], outcome[3] is not None))
        return outcome

    monkeypatch.setattr(PortalPassSimulator, "_idle_run", watched)
    return runs


def _assert_matches_reference(cached, reference, with_counters):
    for mine, ref in zip(cached, reference):
        assert mine.trace == ref.trace
        assert [e.time for e in mine.trace] == [e.time for e in ref.trace]
        assert mine.rounds == ref.rounds
        assert mine.coverage == ref.coverage
        if with_counters:
            # The reference composes every link, so only the cached
            # path counts short-circuits.
            assert _counters(mine, False) == _counters(ref, False)


def _assert_bulk_matches_detail(bulk, bulk_stats, detail, detail_stats):
    assert bulk_stats == detail_stats
    for mine, ref in zip(bulk, detail):
        assert _counters(mine) == _counters(ref)
        assert _histograms(mine) == _histograms(ref)


class TestMatchesReference:
    @pytest.mark.parametrize("recording", ["none", "counters"])
    @pytest.mark.parametrize("name", sorted(SCENES))
    def test_trace_rounds_and_counters(self, name, recording):
        cached, _ = _run(name, True, recording)
        reference, _ = _run(name, False, recording)
        _assert_matches_reference(cached, reference, recording != "none")

    @pytest.mark.parametrize("name", sorted(SCENES))
    def test_bulk_recording_matches_a_detailed_one(self, name):
        # A detailed recording takes every round on its own, so its
        # counters, histograms and cache counters are what the runs
        # add up in bulk.
        bulk, bulk_stats = _run(name, True, "counters")
        detail, detail_stats = _run(name, True, "detail")
        _assert_bulk_matches_detail(bulk, bulk_stats, detail, detail_stats)
        unrecorded, unrecorded_stats = _run(name, True, "none")
        assert unrecorded_stats == bulk_stats
        assert [r.trace for r in unrecorded] == [r.trace for r in bulk]


class TestScenesCutRuns:
    """Each scene puts the edge it is named for inside an approach run."""

    @pytest.mark.parametrize("recording", ["none", "counters"])
    @pytest.mark.parametrize("name", sorted(SCENES))
    def test_runs_fire(self, monkeypatch, name, recording):
        runs = _watch_runs(monkeypatch)
        results, _ = _run(name, True, recording)
        assert sum(k for _, k, _ in runs) > 0.2 * sum(r.rounds for r in results)

    def test_detailed_recording_runs_round_by_round(self, monkeypatch):
        runs = _watch_runs(monkeypatch)
        _run("walker-faults", True, "detail")
        assert runs == []

    def test_cart_dwells_cut_runs(self, monkeypatch):
        runs = _watch_runs(monkeypatch)
        _run("cart-tdma", True)
        # A 0.1 s dwell holds ~52 rounds at the floor.
        assert max(k for _, k, _ in runs) < 60
        assert len([k for _, k, _ in runs if k]) >= 20

    def test_energizing_first_round(self, monkeypatch):
        runs = _watch_runs(monkeypatch)
        (result,), _ = _run("first-round-energizes", True)
        assert runs[-2:] == [(1, 621, False), (1, 0, True)]
        assert [e.time for e in result.trace] == [1.213187499999985]

    def test_truncated_last_round(self, monkeypatch):
        last = []
        real = simulation.run_inventory_round

        def watched(*args, **kwargs):
            result = real(*args, **kwargs)
            last[:] = [result]
            return result

        monkeypatch.setattr(simulation, "run_inventory_round", watched)
        (reference,), _ = _run("truncated-end", False)
        # The reference's last round runs no slot: the pass end cut it.
        assert last[0].slots == []
        assert not reference.trace.epcs_seen()
        runs = _watch_runs(monkeypatch)
        (cached,), _ = _run("truncated-end", True)
        assert cached.rounds == reference.rounds
        assert not any(stopped for _, _, stopped in runs)

    def test_uninventoried_set_shrinks(self, monkeypatch):
        runs = _watch_runs(monkeypatch)
        results, _ = _run("three-tags", True)
        assert all(len(r.read_epcs) == 3 for r in results)
        assert {tags for tags, k, _ in runs if k} >= {1, 2, 3}

    def test_front_tag_never_read(self, monkeypatch):
        runs = _watch_runs(monkeypatch)
        results, _ = _run("front-unread", True)
        assert all(not r.read_epcs for r in results)
        assert sum(k for _, k, _ in runs) > 0.9 * sum(r.rounds for r in results)

    def test_jammed_walker_reads_depend_on_co_channel_draws(self):
        portal, carriers, _, trials = SCENES["jammed-walker"]()
        setup = PaperSetup().simulator(portal)
        traces = []
        for probability in (setup.params.co_channel_probability, 0.0):
            sim = PortalPassSimulator(
                portal=portal,
                env=setup.env,
                params=dataclasses.replace(
                    setup.params, co_channel_probability=probability
                ),
                timing=setup.timing,
                use_link_cache=False,
            )
            traces.append(
                [sim.run_pass(carriers, SeedSequence(SEED), t).trace for t in trials]
            )
        for trace in traces[0]:
            assert {e.reader_id for e in trace} == {"reader-1"}
        assert traces[0] != traces[1]


class TestEnergizingRound:
    def test_evaluated_once(self, monkeypatch):
        # Each round evaluates each uninventoried tag once, so the
        # cached path makes as many evaluations as the reference.
        evaluations = []
        real = PortalPassSimulator._evaluate_tag_cached

        def counting(self, ctx, scene, carrier, tag, antenna, reader, t, *rest):
            evaluations.append((tag.epc, antenna.antenna_id, t))
            return real(self, ctx, scene, carrier, tag, antenna, reader, t, *rest)

        monkeypatch.setattr(PortalPassSimulator, "_evaluate_tag_cached", counting)
        (result,), _ = _run("first-round-energizes", True, "counters")
        assert len(evaluations) == len(set(evaluations))
        assert len(evaluations) == result.obs.metrics.get("pass.link_evals").value


@settings(max_examples=examples(8), deadline=None)
@given(
    lane_distance_m=st.floats(0.5, 4.0),
    speed_mps=st.floats(0.5, 2.0),
    start_offset_m=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_approach_runs_match_reference_and_detail(
    lane_distance_m, speed_mps, start_offset_m, seed
):
    carrier, _ = build_walk(1, [HumanTagPlacement.SIDE_CLOSER])
    lane = LinearPass.centered_lane_pass(
        lane_distance_m=lane_distance_m,
        speed_mps=speed_mps,
        half_span_m=2.0,
        height_m=0.0,
    )
    motion = dataclasses.replace(
        lane, start_position=lane.start_position + Vec3(start_offset_m, 0.0, 0.0)
    )
    carriers = [dataclasses.replace(carrier, motion=motion)]

    def run(use_link_cache, recording):
        sim = _simulator(
            failover_portal(), use_link_cache, RECORDINGS[recording]()
        )
        result = sim.run_pass(carriers, SeedSequence(seed), 0)
        return [result], [sim._last_cache_stats]

    bulk, bulk_stats = run(True, "counters")
    reference, _ = run(False, "counters")
    detail, detail_stats = run(True, "detail")
    _assert_matches_reference(bulk, reference, True)
    _assert_bulk_matches_detail(bulk, bulk_stats, detail, detail_stats)
