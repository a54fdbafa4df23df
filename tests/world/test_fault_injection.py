"""Integration tests: fault plans driven through the pass simulator.

These pin the physical fault semantics end to end: a crashed reader
emits nothing and hands its antennas to the survivor via the portal RF
mux; a crash+restart resets the Gen 2 inventory session (tags become
re-readable) where a hang does not; and blind windows surface as
degraded coverage so a miss is "unobserved", never a confident
"absent".
"""

import pytest

from repro.core.calibration import PaperSetup
from repro.faults.plan import (
    AntennaFault,
    FaultPlan,
    ReaderCrash,
    ReaderHang,
)
from repro.obs import Recorder
from repro.reader.backend import ObjectRegistry, TrackedObject
from repro.sim.rng import SeedSequence
from repro.world.portal import (
    AntennaInstallation,
    Portal,
    ReaderAssignment,
    failover_portal,
    single_antenna_portal,
)
from repro.world.scenarios.fault_injection import (
    CrashPlanFactory,
    primary_crash_plan,
    run_fault_rate_sweep,
    run_supervised_pass,
)
from repro.world.scenarios.human_tracking import build_walk

from repro.rf.geometry import Vec3

SEED = 1234


@pytest.fixture(scope="module")
def setup():
    return PaperSetup()


@pytest.fixture(scope="module")
def walk():
    carrier, humans = build_walk(1, ["front"])
    return carrier, humans[0].tags[0].epc


class TestFailoverPortalWiring:
    def test_backups_cross_wired(self):
        portal = failover_portal()
        by_id = {r.reader_id: r for r in portal.readers}
        assert [a.antenna_id for a in by_id["reader-0"].backup_antennas] == [
            "ant-1"
        ]
        assert [a.antenna_id for a in by_id["reader-1"].backup_antennas] == [
            "ant-0"
        ]
        assert all(r.dense_reader_mode for r in portal.readers)

    def test_own_antenna_as_backup_rejected(self):
        ant = AntennaInstallation("ant-0", Vec3(0, 1, 0), Vec3.unit_z())
        with pytest.raises(ValueError, match="own antennas as"):
            ReaderAssignment("reader-0", (ant,), backup_antennas=(ant,))

    def test_unowned_backup_rejected(self):
        ant = AntennaInstallation("ant-0", Vec3(0, 1, 0), Vec3.unit_z())
        ghost = AntennaInstallation("ant-9", Vec3(1, 1, 0), Vec3.unit_z())
        with pytest.raises(ValueError, match="no reader owns"):
            Portal(
                readers=(
                    ReaderAssignment(
                        "reader-0", (ant,), backup_antennas=(ghost,)
                    ),
                )
            )


class TestMuxTakeover:
    def test_survivor_inherits_orphaned_antenna(self, setup, walk):
        carrier, _ = walk
        sim = setup.simulator(failover_portal())
        plan = FaultPlan(crashes=(ReaderCrash("reader-0", 0.05),))
        result = sim.run_pass([carrier], SeedSequence(SEED), 0, fault_plan=plan)
        inherited = [
            e
            for e in result.trace
            if e.reader_id == "reader-1" and e.antenna_id == "ant-0"
        ]
        assert inherited, "survivor never read through the mux'd port"
        delay = sim.params.mux_takeover_delay_s
        assert min(e.time for e in inherited) >= 0.05 + delay
        # The dead reader contributes nothing after the crash.
        assert all(
            e.time < 0.05
            for e in result.trace
            if e.reader_id == "reader-0"
        )

    def test_no_takeover_while_owner_healthy(self, setup, walk):
        carrier, _ = walk
        sim = setup.simulator(failover_portal())
        result = sim.run_pass([carrier], SeedSequence(SEED), 0, fault_plan=None)
        assert all(
            e.antenna_id == "ant-1"
            for e in result.trace
            if e.reader_id == "reader-1"
        )
        # Fault-free passes carry no coverage report: the back-end
        # treats that as full confidence.
        assert result.coverage is None


class TestSessionSemantics:
    def test_crash_restart_resets_inventory_session(self, setup, walk):
        # Reader-1 reads the tag before dying at 0.5; after the power
        # cycle at 1.0 its S0 flags have lapsed, so the same tag is
        # read again. (One read per tag per session otherwise.)
        carrier, _ = walk
        sim = setup.simulator(failover_portal())
        plan = FaultPlan(
            crashes=(ReaderCrash("reader-1", 0.5, restart_at_s=1.0),)
        )
        result = sim.run_pass([carrier], SeedSequence(SEED), 0, fault_plan=plan)
        times = [e.time for e in result.trace if e.reader_id == "reader-1"]
        assert any(t < 0.5 for t in times)
        assert any(t >= 1.0 for t in times)

    def test_hang_preserves_inventory_session(self, setup, walk):
        # Same outage window as above, but a wedge, not a power cycle:
        # the session flags survive, so the pre-hang read is the only
        # one this reader ever produces.
        carrier, _ = walk
        sim = setup.simulator(failover_portal())
        plan = FaultPlan(hangs=(ReaderHang("reader-1", 0.5, duration_s=0.5),))
        result = sim.run_pass([carrier], SeedSequence(SEED), 0, fault_plan=plan)
        times = [e.time for e in result.trace if e.reader_id == "reader-1"]
        assert times and all(t < 0.5 for t in times)


class TestCoverageAnnotations:
    def test_silent_antenna_blinds_port_and_degrades_pass(self, setup, walk):
        carrier, _ = walk
        sim = setup.simulator(failover_portal())
        plan = FaultPlan(
            antenna_faults=(AntennaFault("reader-0", "ant-0", 0.0),)
        )
        result = sim.run_pass([carrier], SeedSequence(SEED), 0, fault_plan=plan)
        assert not [e for e in result.trace if e.reader_id == "reader-0"]
        assert result.coverage.degraded
        assert result.coverage.live_fraction == pytest.approx(0.5)

    def test_crash_outage_reflected_in_coverage(self, setup, walk):
        carrier, _ = walk
        sim = setup.simulator(failover_portal())
        plan = FaultPlan(crashes=(ReaderCrash("reader-0", 0.05),))
        result = sim.run_pass([carrier], SeedSequence(SEED), 0, fault_plan=plan)
        duration = result.duration_s
        ant0 = [
            a for a in result.coverage.antennas if a.antenna_id == "ant-0"
        ][0]
        assert ant0.live_fraction == pytest.approx(0.05 / duration)


class TestBlindMissNeverConfidentAbsent:
    def test_supervised_single_reader_crash(self, setup, walk):
        # The acceptance contract: with the only reader dead before the
        # first poll, the stack must say "unobserved", never "absent,
        # full confidence" — and the failure must be observable.
        carrier, epc = walk
        sim = setup.simulator(single_antenna_portal())
        registry = ObjectRegistry()
        registry.register(TrackedObject("subject-0", frozenset({epc})))
        plan = primary_crash_plan(
            carrier.motion.duration_s,
            crash_fraction=0.0125,
            restart_after_s=None,
        )
        outcome = run_supervised_pass(
            sim,
            [carrier],
            registry,
            "subject-0",
            SeedSequence(SEED),
            0,
            plan,
        )
        assert not outcome.detected
        assert outcome.degraded
        assert outcome.verdict == "unobserved"
        assert outcome.coverage < 1.0
        assert any(
            t.new.value == "down" for t in outcome.transitions
        ), "the crash left no observable health trail"

    def test_fault_free_miss_is_plain_absent(self, setup, walk):
        # Control: with full coverage, a genuinely unseen object IS
        # reported absent — degraded-mode caution must not leak into
        # healthy passes.
        carrier, _ = walk
        sim = setup.simulator(single_antenna_portal())
        registry = ObjectRegistry()
        registry.register(
            TrackedObject("phantom", frozenset({"F" * 24}))
        )
        outcome = run_supervised_pass(
            sim,
            [carrier],
            registry,
            "phantom",
            SeedSequence(SEED),
            0,
            None,
        )
        assert not outcome.detected
        assert not outcome.degraded
        assert outcome.verdict == "absent"
        assert outcome.coverage == 1.0


class _NoStreams(SeedSequence):
    def trial_stream(self, name, trial_index):
        raise AssertionError(f"derived stream {name!r}")


class TestCrashPlanFactory:
    READERS = ("reader-0", "reader-1")

    def test_rate_zero_is_no_plan(self):
        factory = CrashPlanFactory(rate=0.0, reader_ids=self.READERS)
        assert factory(_NoStreams(SEED), 0, 4.0) is None

    def test_rate_one_crashes_every_listed_reader(self):
        factory = CrashPlanFactory(rate=1.0, reader_ids=self.READERS)
        plan = factory(SeedSequence(SEED), 0, 4.0)
        assert plan.crashes == tuple(
            crash
            for reader_id in self.READERS
            for crash in primary_crash_plan(4.0, reader_id=reader_id).crashes
        )

    def test_default_is_the_primary_crash(self):
        plan = CrashPlanFactory(rate=1.0)(SeedSequence(SEED), 0, 4.0)
        assert plan == primary_crash_plan(4.0)

    @pytest.mark.parametrize("trial", range(6))
    def test_sampled_rate_draws_each_reader_in_order(self, trial):
        seeds = SeedSequence(SEED)
        plan = CrashPlanFactory(rate=0.5, reader_ids=self.READERS)(
            seeds, trial, 4.0
        )
        stream = seeds.trial_stream("faultplan:rate=0.5", trial)
        crashed = [r for r in self.READERS if stream.bernoulli(0.5)]
        if not crashed:
            assert plan is None
        else:
            assert [c.reader_id for c in plan.crashes] == crashed


class TestFaultRateSweep:
    def test_repeated_rate_rejected(self):
        # Accepted, a repeated rate would run twice and keep one result.
        with pytest.raises(ValueError, match="distinct"):
            run_fault_rate_sweep(rates=[0.5, 0.5], repetitions=1)

    def test_close_rates_get_distinct_labels(self):
        # Both rates print as 0.123456 at six significant digits; each
        # point still needs its own label and its own wall-time timer.
        recorder = Recorder()
        results = run_fault_rate_sweep(
            rates=(0.1234561, 0.1234562), repetitions=1, recorder=recorder
        )
        singles = [single.label for single, _ in results.values()]
        assert len(set(singles)) == 2
        for single, failover in results.values():
            for label in (single.label, failover.label):
                timer = recorder.metrics.timer(f"trial.wall_s[{label}]")
                assert timer.count == 1

    def test_out_of_range_rate_rejected_before_any_pass(self):
        recorder = Recorder()
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            run_fault_rate_sweep(
                rates=(0.5, 1.5), repetitions=1, recorder=recorder
            )
        assert recorder.observations == []
