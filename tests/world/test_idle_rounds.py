"""Idle-round fast-forward: skipped rounds must be invisible.

With the link cache on, the pass loop advances a round that provably
reads nothing — the session has inventoried every tag, or every
uninventoried tag's link state repeats a round in which none of them
contended — without running it through the Gen 2 round or the link
budget. Every test here checks that against the uncached reference,
which still runs every round, or against values pinned before the
fast-forward existed.
"""

import dataclasses
import hashlib
import json

import pytest

import repro.world.simulation as simulation
from repro.core.calibration import PaperSetup
from repro.core.parallel import PassTrialTask
from repro.faults import (
    AntennaFault,
    FaultPlan,
    InterferenceBurst,
    ReaderCrash,
    ReaderHang,
)
from repro.obs.jsonl import dump_records
from repro.obs.recorder import Recorder
from repro.rf.geometry import Vec3
from repro.rf.materials import METAL
from repro.sim.rng import SeedSequence
from repro.world.humans import HumanTagPlacement
from repro.world.motion import StationaryPlacement
from repro.world.portal import (
    dual_reader_portal,
    failover_portal,
    single_antenna_portal,
)
from repro.world.scenarios.catalog import SCENES
from repro.world.scenarios.human_tracking import build_walk
from repro.world.scenarios.read_range import build_tag_plane
from repro.world.simulation import CarrierGroup, Occluder, PortalPassSimulator

SEED = 20070625


def _plane(distance_m, duration_s=None):
    plane = build_tag_plane(distance_m)
    if duration_s is not None:
        plane.motion = dataclasses.replace(plane.motion, duration_s=duration_s)
    return plane


def _task(portal, carriers, fault_plan=None):
    return PassTrialTask(
        simulator=PaperSetup().simulator(portal),
        carriers=tuple(carriers),
        fault_plan=fault_plan,
    )


#: Every fault the pass loop honours, inside a 2 s pass: reader-0
#: crashes and restarts (reader-1 takes its port over through the mux
#: meanwhile), reader-1 hangs long enough for the reverse takeover, one
#: port goes silent, two are detuned — one of them while taken over —
#: and an ambient burst raises every receive floor.
FAILOVER_PLAN = FaultPlan(
    crashes=(ReaderCrash("reader-0", 0.2, 1.0),),
    hangs=(ReaderHang("reader-1", 1.3, 0.4),),
    antenna_faults=(
        AntennaFault("reader-1", "ant-1", 0.6, 0.8),
        AntennaFault("reader-0", "ant-0", 1.1, 1.6, gain_penalty_db=6.0),
        AntennaFault("reader-1", "ant-0", 0.5, 0.7, gain_penalty_db=3.0),
    ),
    interference_bursts=(InterferenceBurst(0.9, 1.2, -55.0),),
)


def _failover_plane():
    return _task(failover_portal(), [_plane(3.0, 2.0)], FAILOVER_PLAN)


def _screened_plane():
    """A 3 m plane behind a metal blob on a stationary carrier of its
    own: the tags it screens are short-circuited, the rest compose."""
    plane = _plane(3.0)
    screen = CarrierGroup(
        motion=StationaryPlacement(
            Vec3(0.1, 1.0, 1.5), duration_s=plane.motion.duration_s
        ),
        occluders=[Occluder(Vec3.zero(), 0.15, METAL)],
    )
    return _task(single_antenna_portal(), [plane, screen])


def _failover_walk():
    carrier, _ = build_walk(1, [HumanTagPlacement.SIDE_CLOSER])
    duration = carrier.motion.duration_s
    plan = FaultPlan(
        crashes=(ReaderCrash("reader-0", 0.3 * duration, 0.7 * duration),)
    )
    return _task(failover_portal(), [carrier], plan)


#: name -> (task factory, trials).
PARITY_SCENES = {
    **{name: (scene.build, scene.trials) for name, scene in SCENES.items()},
    "plane-1m": (lambda: _task(single_antenna_portal(), [_plane(1.0)]), 2),
    "plane-3m": (lambda: _task(single_antenna_portal(), [_plane(3.0)]), 2),
    "plane-5m": (lambda: _task(single_antenna_portal(), [_plane(5.0)]), 2),
    "screened-plane": (_screened_plane, 2),
    "failover-plane": (_failover_plane, 2),
    # Non-DRM neighbours: the co-channel draw flips the interference
    # value, which ends an idle run.
    "dual-reader-plane": (
        lambda: _task(
            dual_reader_portal(dense_reader_mode=False), [_plane(2.0)]
        ),
        2,
    ),
    "failover-walk": (_failover_walk, 2),
}

#: ``_last_cache_stats`` of each trial, as the counters
#: (geometry hits, geometry misses, composed hits, composed misses,
#: fading hits, fading misses, short-circuits), and a digest of each
#: scene's cached, fully recorded passes (trace, rounds, every record
#: and every per-pass metric), all taken before the fast-forward existed.
PINNED = {
    "cart-antenna-fault": (
        [
            (0, 3609, 0, 3609, 1327, 28, 2254),
        ],
        "fc28a077e774f8576e000aa7617a68493ab41591e8e12cbbb0b76efc5798f9d4",
    ),
    "cart-collisions": (
        [
            (0, 6447, 0, 6447, 3160, 58, 3229),
        ],
        "9c1420cb75a4d8c18f06b3651d30d2d8c13eb0eaa47308af020be2dbf971fb30",
    ),
    "cart-front": (
        [
            (0, 6411, 0, 6411, 2977, 51, 3383),
            (0, 6031, 0, 6031, 3106, 53, 2872),
        ],
        "aa3d03cab7dba0634fc1df49daa17e4178f1533d15a65eb7fde477acc1edc0cc",
    ),
    "cart-front-back": (
        [
            (0, 32471, 0, 32471, 13510, 210, 18751),
            (0, 21523, 0, 21523, 9507, 149, 11867),
        ],
        "b9c544dd84170e1aabf164134f61177c5a85e6a72074813384ebc91efdca0e63",
    ),
    "dual-reader-plane": (
        [
            (760, 40, 460, 340, 760, 40, 0),
            (680, 40, 280, 440, 680, 40, 0),
        ],
        "d9525df7164d0ec8edb82f706113b4fb7045c2ef1e46a4d9044a371db9de008a",
    ),
    "failover-plane": (
        [
            (4212, 40, 4105, 147, 4197, 55, 0),
            (5354, 40, 5230, 164, 5333, 61, 0),
        ],
        "8f20d72dde4278f5353d25c3e1944f30e27d2f3f549092ec0d9befeac0a1ffc4",
    ),
    "failover-walk": (
        [
            (0, 1441, 0, 1441, 476, 10, 955),
            (0, 1535, 0, 1535, 704, 13, 818),
        ],
        "9df72b8ec20d9a436823f5d838e48e25467f525fab30b1eb43288e721cd564f0",
    ),
    "plane-1m": (
        [
            (22, 20, 22, 20, 22, 20, 0),
            (34, 20, 34, 20, 34, 20, 0),
        ],
        "7f24ae72c832aefa97f744e1e2e5222251566988e0f80b9e6f15310ccb6ac584",
    ),
    "plane-3m": (
        [
            (188, 20, 188, 20, 188, 20, 0),
            (752, 20, 752, 20, 752, 20, 0),
        ],
        "83576303827161deca10f8e957980b48befbdcabc114a8c7bf6cd81550d1bc75",
    ),
    "plane-5m": (
        [
            (956, 20, 956, 20, 956, 20, 0),
            (2126, 20, 2126, 20, 2126, 20, 0),
        ],
        "aadcd1fe849d6a6728ff64624d284a0065b681da91d0624649bad042266f2398",
    ),
    "screened-plane": (
        [
            (1181, 20, 1181, 20, 401, 16, 784),
            (1596, 20, 1596, 20, 1005, 17, 594),
        ],
        "17c3121e8727c6ee22091e1c1759c3ed5a0e6de48a0e89233fb5c35d8f709692",
    ),
    "tag-plane-3m": (
        [
            (188, 20, 188, 20, 188, 20, 0),
            (752, 20, 752, 20, 752, 20, 0),
        ],
        "83576303827161deca10f8e957980b48befbdcabc114a8c7bf6cd81550d1bc75",
    ),
    "walk-front": (
        [
            (0, 579, 0, 579, 571, 8, 0),
            (0, 2072, 0, 2072, 1043, 14, 1015),
        ],
        "19ce5062a62be72148798cfe3429a04e10bc56c6799261ddac159727108c3d11",
    ),
}

_STAT_KEYS = (
    "geometry_hits",
    "geometry_misses",
    "composed_hits",
    "composed_misses",
    "fading_hits",
    "fading_misses",
    "short_circuits",
)


def _run(task, use_link_cache, trials, recorder_factory=None):
    simulator = task.simulator
    recorder = recorder_factory() if recorder_factory is not None else None
    sim = PortalPassSimulator(
        portal=simulator.portal,
        env=simulator.env,
        params=simulator.params,
        timing=simulator.timing,
        use_link_cache=use_link_cache,
        recorder=recorder,
    )
    task = dataclasses.replace(task, simulator=sim)
    results, stats = [], []
    for trial in range(trials):
        results.append(task(SeedSequence(SEED), trial))
        stats.append(sim._last_cache_stats)
    return results, stats


def _full_recorder():
    return Recorder(detail=True)


def _metrics_doc(registry):
    """The registry as plain data: each metric's fields plus its kind."""
    return {
        name: dict(
            dataclasses.asdict(registry.get(name)),
            kind=type(registry.get(name)).__name__.lower(),
        )
        for name in registry.names()
    }


def _digest(results):
    digest = hashlib.sha256()
    for result in results:
        lines = [
            repr((e.time, e.epc, e.reader_id, e.antenna_id, e.rssi_dbm))
            for e in result.trace
        ]
        lines.append(repr((result.rounds, result.duration_s)))
        lines.extend(dump_records(result.obs.records()))
        lines.append(json.dumps(_metrics_doc(result.obs.metrics), sort_keys=True))
        for line in lines:
            digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


#: Record fields fixed before the fading draw; a short-circuited record
#: stops there, the reference's goes on to compose the budget.
_LINK_INPUTS = (
    "time", "trial", "reader_id", "antenna_id", "epc", "tx_power_dbm",
    "cable_loss_db", "reader_gain_dbi", "path_gain_db", "shadowing_db",
    "tag_gain_dbi", "polarization_loss_db", "obstruction_db",
    "detuning_db", "coupling_db", "fault_loss_db", "interference_dbm",
)


def _streams(observation, fading):
    return [
        r for r in observation.rng_records
        if r.name.startswith("fading:") == fading
    ]


class TestParity:
    @pytest.mark.parametrize("name", sorted(PARITY_SCENES))
    def test_matches_reference_and_pins(self, name):
        factory, trials = PARITY_SCENES[name]
        cached, stats = _run(factory(), True, trials, _full_recorder)
        reference, _ = _run(factory(), False, trials, _full_recorder)
        for mine, ref in zip(cached, reference):
            assert mine.trace == ref.trace
            assert mine.rounds == ref.rounds
            assert mine.coverage == ref.coverage
            a, b = mine.obs, ref.obs
            assert a.slot_records == b.slot_records
            # The cache derives a fading stream once per coherence cell,
            # and none for a short-circuited link.
            assert _streams(a, fading=False) == _streams(b, fading=False)
            assert set(_streams(a, fading=True)) <= set(_streams(b, fading=True))
            assert a.masked_dwells == b.masked_dwells
            assert a.metrics.get("pass.rounds") == b.metrics.get("pass.rounds")
            assert len(a.link_records) == len(b.link_records)
            for link, ref_link in zip(a.link_records, b.link_records):
                if not link.short_circuited:
                    assert link == ref_link
                    continue
                for field in _LINK_INPUTS:
                    assert getattr(link, field) == getattr(ref_link, field)
                assert not ref_link.energized
        pinned_stats, pinned_digest = PINNED[name]
        assert stats == [dict(zip(_STAT_KEYS, row)) for row in pinned_stats]
        assert _digest(cached) == pinned_digest

    @pytest.mark.parametrize("name", ["plane-3m", "failover-plane"])
    def test_recording_does_not_perturb(self, name):
        factory, trials = PARITY_SCENES[name]
        recorded, recorded_stats = _run(factory(), True, trials, Recorder)
        plain, plain_stats = _run(factory(), True, trials)
        assert recorded_stats == plain_stats
        for a, b in zip(recorded, plain):
            assert (a.trace, a.rounds, a.coverage) == (b.trace, b.rounds, b.coverage)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(simulation, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulation, name, counting)
    return calls


class TestFastPathFires:
    def test_plane_skips_almost_every_round(self, monkeypatch):
        calls = _counting(monkeypatch, "run_inventory_round")
        (result,), _ = _run(PARITY_SCENES["plane-3m"][0](), True, 1)
        assert result.rounds > 100
        assert 0 < len(calls) <= 0.05 * result.rounds

    def test_reference_runs_every_round(self, monkeypatch):
        calls = _counting(monkeypatch, "run_inventory_round")
        (result,), _ = _run(PARITY_SCENES["plane-3m"][0](), False, 1)
        assert len(calls) == result.rounds

    @pytest.mark.parametrize("name", ["failover-plane", "failover-walk"])
    def test_interference_summed_once_per_key(self, monkeypatch, name):
        calls = _counting(monkeypatch, "interference_at_receiver_dbm")
        (result,), _ = _run(PARITY_SCENES[name][0](), True, 1)
        keys = {
            (
                victim.reader_id,
                victim.position,
                tuple(a.reader_id for a in aggressors),
                co_channel,
            )
            for victim, aggressors, co_channel in calls
        }
        assert 0 < len(calls) == len(keys) < result.rounds


class TestLinkRecordsBuiltWhenKept:
    """A waterfall record is built only when the recording keeps it."""

    @pytest.mark.parametrize("detail", [False, True])
    @pytest.mark.parametrize("name", ["screened-plane", "failover-walk"])
    def test_one_record_per_kept_evaluation(self, monkeypatch, name, detail):
        built = _counting(monkeypatch, "DwellLinkRecord")
        replayed = []
        replay = simulation._IdleProof.replay

        def counting_replay(proof, cache):
            replayed.append(len(proof.links))
            return replay(proof, cache)

        monkeypatch.setattr(simulation._IdleProof, "replay", counting_replay)
        (result,), _ = _run(
            PARITY_SCENES[name][0](), True, 1, lambda: Recorder(detail=detail)
        )
        evaluations = result.obs.metrics.get("pass.link_evals").value
        assert evaluations > 0
        if name == "screened-plane":
            # The screened tags stay dark: idle rounds replay their links.
            assert sum(replayed) > 0
        if detail:
            assert len(built) == evaluations
            assert len(result.obs.link_records) == evaluations
        else:
            assert built == []
            assert result.obs.link_records == ()


class TestBoundaries:
    @pytest.mark.parametrize("distance_m", [1.0, 3.0])
    def test_restart_inside_idle_run_rereads_at_reference_time(
        self, monkeypatch, distance_m
    ):
        # The crash lands in an idle run: at 1 m every tag has been read
        # by then, at 3 m the unread ones stay dark under an unchanged
        # link state. The restart's fresh session must read again.
        plan = FaultPlan(crashes=(ReaderCrash("reader-0", 0.8, 1.2),))
        task = _task(single_antenna_portal(), [_plane(distance_m, 2.0)], plan)
        calls = _counting(monkeypatch, "run_inventory_round")
        (cached,), _ = _run(task, True, 1)
        fast_calls = len(calls)
        (reference,), _ = _run(task, False, 1)
        assert cached.trace == reference.trace
        assert cached.rounds == reference.rounds
        before = {e.epc for e in cached.trace if e.time < 0.8}
        after = {e.epc for e in cached.trace if e.time >= 1.2}
        assert before and after
        if distance_m == 1.0:
            assert before == after == {t.epc for t in task.carriers[0].tags}
        assert fast_calls < 0.05 * cached.rounds


class TestFaultTimeline:
    def test_segments_agree_with_point_queries(self):
        task = _failover_plane()
        sim = task.simulator
        plan = task.fault_plan
        delay = sim.params.mux_takeover_delay_s
        # The 5 ms grid probes between edges; the edges themselves are
        # probed on both sides.
        edges = sorted(
            {e for r in sim.portal.readers for e in plan.change_points(r.reader_id)}
        )
        times = [i / 200.0 for i in range(401)]
        times += [e + d for e in edges for d in (-1e-9, 0.0, delay, delay + 1e-9)]
        owner = {a.antenna_id: r for r in sim.portal.readers for a in r.antennas}
        for reader in sim.portal.readers:
            segments = sim._fault_timeline(plan, reader)
            others = [r for r in sim.portal.readers if r is not reader]
            for t in sorted(x for x in times if x >= 0.0):
                segment = next(s for s in segments if t < s.end)
                assert segment.down == plan.reader_down(reader.reader_id, t)
                inherited = tuple(
                    backup
                    for backup in reader.backup_antennas
                    for start, end in plan.reader_outages(
                        owner[backup.antenna_id].reader_id
                    )
                    if start + delay < end and start + delay <= t < end
                )
                assert segment.active == tuple(reader.antennas) + inherited
                for antenna in segment.active:
                    assert segment.ports[antenna.antenna_id] == plan.antenna_state(
                        reader.reader_id, antenna.antenna_id, t
                    )
                assert segment.live_key == tuple(
                    r.reader_id
                    for r in others
                    for _ in r.antennas
                    if not plan.reader_down(r.reader_id, t)
                )
                assert segment.burst_dbm == plan.interference_dbm_at(t)

    def test_restart_flags_the_segment_it_starts(self):
        task = _failover_plane()
        sim = task.simulator
        plan = task.fault_plan
        flagged = {}
        for reader in sim.portal.readers:
            segments = sim._fault_timeline(plan, reader)
            starts = [0.0] + [s.end for s in segments[:-1]]
            restarts = {
                c.restart_at_s for c in plan.crash_restarts(reader.reader_id)
            }
            assert restarts <= set(starts)
            assert [s.restart for s in segments] == [
                start in restarts for start in starts
            ]
            flagged[reader.reader_id] = [
                start for start, s in zip(starts, segments) if s.restart
            ]
        # Only the crashed reader restarts; its neighbour sees an edge
        # there (an aggressor comes back) but keeps its session.
        assert flagged == {"reader-0": [1.0], "reader-1": []}
        assert 1.0 in starts
