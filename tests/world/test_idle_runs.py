"""Idle runs: rounds that read nothing must stay invisible in bulk too.

With the link cache on, a round in which no uninventoried tag is
energized takes the idle path, and once the Q algorithm sits at its
floor the idle rounds that need no link evaluation run in one loop up
to the next edge: a TDMA dwell switch, a fault-timeline segment end, a
round the pass end would truncate, or a co-channel draw that breaks
the idle proof. Every test here checks a scene that puts one of those
edges inside a run against the uncached reference, which runs every
round through ``run_inventory_round``.
"""

import dataclasses

import pytest

import repro.world.simulation as simulation
from repro.core.calibration import PaperSetup
from repro.faults import AntennaFault, FaultPlan, InterferenceBurst, ReaderCrash
from repro.obs.metrics import Counter
from repro.obs.recorder import Recorder
from repro.rf.geometry import Vec3
from repro.sim.rng import SeedSequence
from repro.world.portal import (
    ANTENNA_HEIGHT_M,
    AntennaInstallation,
    Portal,
    ReaderAssignment,
    dual_antenna_portal,
    failover_portal,
    single_antenna_portal,
)
from repro.world.scenarios.read_range import build_tag_plane
from repro.world.simulation import PortalPassSimulator

SEED = 20070625
TRIALS = 2


def _plane(distance_m, duration_s):
    plane = build_tag_plane(distance_m)
    plane.motion = dataclasses.replace(plane.motion, duration_s=duration_s)
    return plane


def _jammed_portal():
    """Two readers without dense-reader mode, 8 m apart.

    The first, at 10 dBm, energizes no tag of a plane in front of the
    second, but jams the second's receiver on co-channel rounds: the
    second reader's reads depend on every co-channel draw the first
    one's idle runs make on the shared interference stream.
    """
    return Portal(
        readers=(
            ReaderAssignment(
                "reader-0",
                (
                    AntennaInstallation(
                        "ant-0", Vec3(-8.0, ANTENNA_HEIGHT_M, 0.0), Vec3.unit_z()
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
#: interference burst, all inside a 1 s pass of the failover portal.
FAULTS = FaultPlan(
    crashes=(ReaderCrash("reader-0", 0.3, 0.6),),
    antenna_faults=(AntennaFault("reader-1", "ant-1", 0.2, 0.45),),
    interference_bursts=(InterferenceBurst(0.5, 0.8, -55.0),),
)

#: name -> (portal, carriers, fault plan). At 2 m the two-antenna reader
#: reads every tag, so dwell switches cut runs of rounds with everyone
#: read. With its antennas 3 m apart and the plane at 3 m, each antenna
#: reaches tags the other leaves dark: a run replaying one antenna's
#: idle proof must stop at the switch for the other to read them.
SCENES = {
    "tdma-two-antennas-2m": lambda: (
        dual_antenna_portal(), [_plane(2.0, 1.0)], None
    ),
    "tdma-wide-antennas-3m": lambda: (
        dual_antenna_portal(spacing_m=3.0), [_plane(3.0, 1.0)], None
    ),
    "live-aggressor": lambda: (_jammed_portal(), [_plane(1.0, 1.0)], None),
    "faults": lambda: (failover_portal(), [_plane(2.0, 1.0)], FAULTS),
    # Both trials' last round starts less than a Query before the end.
    "truncated-end": lambda: (
        single_antenna_portal(), [_plane(1.0, 1.0)], None
    ),
}

#: Recordings the cached path is run under: none (every idle run is
#: taken in one loop), counters only (runs with everyone read still
#: are, proof replays go round by round) and detailed (every round).
RECORDINGS = {
    "none": lambda: None,
    "counters": Recorder,
    "detail": lambda: Recorder(detail=True),
}


def _run(name, use_link_cache, recording="none"):
    portal, carriers, plan = SCENES[name]()
    setup = PaperSetup().simulator(portal)
    sim = PortalPassSimulator(
        portal=portal,
        env=setup.env,
        params=setup.params,
        timing=setup.timing,
        use_link_cache=use_link_cache,
        recorder=RECORDINGS[recording](),
    )
    results, stats = [], []
    for trial in range(TRIALS):
        results.append(sim.run_pass(carriers, SeedSequence(SEED), trial, plan))
        stats.append(sim._last_cache_stats)
    return results, stats


def _counters(result):
    """(name, value) of every counter, in declaration order.

    The reference composes every link, so only the cached path counts
    short-circuits.
    """
    metrics = result.obs.metrics
    return [
        (name, metric.value)
        for name, metric in metrics._metrics.items()
        if isinstance(metric, Counter) and name != "pass.short_circuits"
    ]


def _watch_runs(monkeypatch):
    """Record the rounds of every idle run the cached path takes."""
    runs = []
    real = PortalPassSimulator._idle_run

    def watched(self, *args):
        outcome = real(self, *args)
        runs.append(outcome[0])
        return outcome

    monkeypatch.setattr(PortalPassSimulator, "_idle_run", watched)
    return runs


class TestMatchesReference:
    @pytest.mark.parametrize("recording", ["none", "counters"])
    @pytest.mark.parametrize("name", sorted(SCENES))
    def test_trace_rounds_and_counters(self, name, recording):
        cached, _ = _run(name, True, recording)
        reference, _ = _run(name, False, recording)
        for mine, ref in zip(cached, reference):
            assert mine.trace == ref.trace
            assert [e.time for e in mine.trace] == [e.time for e in ref.trace]
            assert mine.rounds == ref.rounds
            assert mine.coverage == ref.coverage
            if recording != "none":
                assert _counters(mine) == _counters(ref)

    @pytest.mark.parametrize("name", sorted(SCENES))
    def test_cache_counters_match_the_per_round_path(self, name):
        # A detailed recording takes every round on its own, so its
        # counters are the per-round replays the runs add up in bulk.
        (_, bulk), (_, per_round) = (
            _run(name, True, "none"),
            _run(name, True, "detail"),
        )
        assert bulk == per_round


class TestScenesCutRuns:
    """Each scene puts the edge it is named for inside an idle run."""

    @pytest.mark.parametrize("recording", ["none", "counters"])
    @pytest.mark.parametrize("name", sorted(SCENES))
    def test_runs_fire(self, monkeypatch, name, recording):
        runs = _watch_runs(monkeypatch)
        results, _ = _run(name, True, recording)
        if recording == "counters" and name in (
            "tdma-wide-antennas-3m",
            "live-aggressor",
        ):
            # Tags stay unread: a recorded proof replays round by round.
            assert runs == []
            return
        assert sum(runs) > 0.5 * sum(r.rounds for r in results)

    def test_live_aggressor_second_reader_reads(self):
        results, _ = _run("live-aggressor", False)
        for result in results:
            assert {e.reader_id for e in result.trace} == {"reader-1"}

    def test_tdma_dwells_cut_runs(self, monkeypatch):
        runs = _watch_runs(monkeypatch)
        _run("tdma-two-antennas-2m", True)
        # A 0.1 s dwell holds ~52 rounds at the floor; ten dwells a pass.
        assert max(runs) < 60
        assert len([r for r in runs if r]) >= 8 * TRIALS

    def test_truncated_last_round(self, monkeypatch):
        # The reference's last round runs fewer slots than a floor frame.
        last = []
        real = simulation.run_inventory_round

        def watched(*args, **kwargs):
            result = real(*args, **kwargs)
            last[:] = [result]
            return result

        monkeypatch.setattr(simulation, "run_inventory_round", watched)
        portal, carriers, _ = SCENES["truncated-end"]()
        setup = PaperSetup().simulator(portal)
        sim = PortalPassSimulator(
            portal=portal,
            env=setup.env,
            params=setup.params,
            timing=setup.timing,
            use_link_cache=False,
        )
        assert setup.params.q_min == 0
        for trial in range(TRIALS):
            sim.run_pass(carriers, SeedSequence(SEED), trial)
            assert last[0].slots == []
