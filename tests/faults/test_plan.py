"""Tests for deterministic fault plans."""

import math

import pytest

from repro.faults.plan import (
    AntennaFault,
    CoverageReport,
    FaultPlan,
    FaultPlanError,
    InterferenceBurst,
    PollFault,
    ReaderCrash,
    ReaderHang,
    WireCorruption,
)
from repro.sim.rng import RandomStream


class TestSpecValidation:
    def test_crash_restart_must_follow_crash(self):
        with pytest.raises(FaultPlanError, match="after the"):
            ReaderCrash("reader-0", at_s=2.0, restart_at_s=1.0)

    def test_crash_time_must_be_finite(self):
        with pytest.raises(FaultPlanError):
            ReaderCrash("reader-0", at_s=-1.0)
        with pytest.raises(FaultPlanError):
            ReaderCrash("reader-0", at_s=math.nan)

    def test_hang_needs_positive_duration(self):
        with pytest.raises(FaultPlanError, match="duration"):
            ReaderHang("reader-0", at_s=1.0, duration_s=0.0)

    def test_antenna_fault_window_must_be_nonempty(self):
        with pytest.raises(FaultPlanError, match="empty"):
            AntennaFault("reader-0", "ant-0", start_s=2.0, end_s=2.0)

    def test_antenna_gain_penalty_must_be_positive(self):
        with pytest.raises(FaultPlanError, match="penalty"):
            AntennaFault(
                "reader-0", "ant-0", start_s=0.0, gain_penalty_db=-3.0
            )

    def test_burst_power_plausibility(self):
        with pytest.raises(FaultPlanError, match="plausible"):
            InterferenceBurst(0.0, 1.0, power_dbm=60.0)

    def test_corruption_mode_checked(self):
        with pytest.raises(FaultPlanError, match="mode"):
            WireCorruption("reader-0", probability=0.5, mode="teleport")

    def test_poll_fault_probabilities_checked(self):
        with pytest.raises(FaultPlanError):
            PollFault("reader-0", drop_probability=1.5)

    def test_duplicate_wire_corruptions_rejected(self):
        with pytest.raises(FaultPlanError, match="merge"):
            FaultPlan(
                wire_corruptions=(
                    WireCorruption("reader-0", 0.1),
                    WireCorruption("reader-0", 0.2),
                )
            )

    def test_duplicate_poll_faults_rejected(self):
        with pytest.raises(FaultPlanError, match="merge"):
            FaultPlan(
                poll_faults=(
                    PollFault("reader-0", drop_probability=0.1),
                    PollFault("reader-0", drop_probability=0.2),
                )
            )


class TestPointQueries:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert not plan.reader_down("reader-0", 1.0)
        assert plan.reader_outages("reader-0") == []
        assert plan.interference_dbm_at(1.0) is None
        assert plan.antenna_state("reader-0", "ant-0", 1.0) == (False, 0.0)

    def test_crash_without_restart_is_down_forever(self):
        plan = FaultPlan(crashes=(ReaderCrash("reader-0", 1.0),))
        assert not plan.reader_down("reader-0", 0.999)
        assert plan.reader_down("reader-0", 1.0)
        assert plan.reader_down("reader-0", 1e9)
        assert not plan.reader_down("reader-1", 2.0)

    def test_restart_window_is_half_open(self):
        plan = FaultPlan(
            crashes=(ReaderCrash("reader-0", 1.0, restart_at_s=3.0),)
        )
        assert plan.reader_down("reader-0", 2.999)
        assert not plan.reader_down("reader-0", 3.0)

    def test_hang_and_crash_outages_merge(self):
        plan = FaultPlan(
            crashes=(ReaderCrash("reader-0", 1.0, restart_at_s=2.0),),
            hangs=(ReaderHang("reader-0", 1.5, duration_s=1.0),),
        )
        assert plan.reader_outages("reader-0") == [(1.0, 2.5)]

    def test_crash_restarts_sorted_and_filtered(self):
        plan = FaultPlan(
            crashes=(
                ReaderCrash("reader-0", 5.0, restart_at_s=6.0),
                ReaderCrash("reader-0", 1.0, restart_at_s=2.0),
                ReaderCrash("reader-0", 8.0),  # never restarts
                ReaderCrash("reader-1", 0.5, restart_at_s=0.6),
            )
        )
        restarts = plan.crash_restarts("reader-0")
        assert [c.at_s for c in restarts] == [1.0, 5.0]

    def test_silent_antenna_beats_penalties(self):
        plan = FaultPlan(
            antenna_faults=(
                AntennaFault(
                    "reader-0", "ant-0", 0.0, 10.0, gain_penalty_db=6.0
                ),
                AntennaFault("reader-0", "ant-0", 2.0, 4.0),
            )
        )
        assert plan.antenna_state("reader-0", "ant-0", 1.0) == (False, 6.0)
        assert plan.antenna_state("reader-0", "ant-0", 3.0) == (True, 0.0)

    def test_strongest_concurrent_burst_wins(self):
        plan = FaultPlan(
            interference_bursts=(
                InterferenceBurst(0.0, 2.0, -60.0),
                InterferenceBurst(1.0, 3.0, -45.0),
            )
        )
        assert plan.interference_dbm_at(0.5) == -60.0
        assert plan.interference_dbm_at(1.5) == -45.0
        assert plan.interference_dbm_at(2.5) == -45.0
        assert plan.interference_dbm_at(3.5) is None

    def test_change_points_cover_every_fault_edge(self):
        plan = FaultPlan(
            crashes=(
                ReaderCrash("reader-0", 1.0, 2.5),
                ReaderCrash("reader-1", 3.0),
            ),
            hangs=(ReaderHang("reader-1", 0.5, 0.25),),
            antenna_faults=(
                AntennaFault("reader-0", "ant-0", 1.5, 1.75),
                AntennaFault("reader-1", "ant-1", 0.25, 4.0),
            ),
            interference_bursts=(InterferenceBurst(2.0, 2.25, -50.0),),
        )
        # Every reader's outages, only this reader's ports, all bursts;
        # a crash without restart adds no end.
        assert plan.change_points("reader-0") == [
            0.0, 0.5, 0.75, 1.0, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0,
        ]
        assert FaultPlan().change_points("reader-0") == [0.0]

    def test_queries_constant_between_change_points(self):
        readers = ["reader-0", "reader-1"]
        ports = [("reader-0", "ant-0"), ("reader-1", "ant-1")]
        plan = FaultPlan.sample(
            RandomStream(5),
            reader_ids=readers,
            duration_s=4.0,
            crash_probability=1.0,
            restart_probability=0.5,
            hang_probability=1.0,
            hang_duration_s=0.5,
            antenna_silence_probability=1.0,
            antennas=ports,
            burst_probability=1.0,
            burst_duration_s=0.5,
        )

        def state(reader_id, t):
            return (
                tuple(plan.reader_down(r, t) for r in readers),
                tuple(
                    plan.antenna_state(reader_id, a, t)
                    for r, a in ports
                    if r == reader_id
                ),
                plan.interference_dbm_at(t),
            )

        for reader_id in readers:
            points = plan.change_points(reader_id)
            for i in range(800):
                t = i / 200.0
                start = max(p for p in points if p <= t)
                assert state(reader_id, t) == state(reader_id, start)


class TestCoverageReport:
    ANTENNAS = (("reader-0", "ant-0"), ("reader-1", "ant-1"))

    def test_full_coverage_when_fault_free(self):
        report = FaultPlan().coverage_report(self.ANTENNAS, duration_s=4.0)
        assert report.live_fraction == 1.0
        assert not report.degraded

    def test_crash_blinds_only_its_readers_antennas(self):
        plan = FaultPlan(crashes=(ReaderCrash("reader-0", 1.0),))
        report = plan.coverage_report(self.ANTENNAS, duration_s=4.0)
        by_id = {a.antenna_id: a for a in report.antennas}
        assert by_id["ant-0"].live_fraction == pytest.approx(0.25)
        assert by_id["ant-1"].live_fraction == 1.0
        assert report.degraded
        assert report.live_fraction == pytest.approx(0.625)

    def test_impaired_fraction_tracked_separately(self):
        plan = FaultPlan(
            antenna_faults=(
                AntennaFault(
                    "reader-0", "ant-0", 0.0, 2.0, gain_penalty_db=6.0
                ),
            )
        )
        report = plan.coverage_report(self.ANTENNAS, duration_s=4.0)
        ant0 = report.for_reader("reader-0")[0]
        assert ant0.live_fraction == 1.0
        assert ant0.impaired_fraction == pytest.approx(0.5)
        assert ant0.degraded and report.degraded

    def test_interference_fraction_clipped_to_window(self):
        plan = FaultPlan(
            interference_bursts=(InterferenceBurst(3.0, 10.0, -50.0),)
        )
        report = plan.coverage_report(self.ANTENNAS, duration_s=4.0)
        assert report.interference_fraction == pytest.approx(0.25)

    def test_full_factory(self):
        report = CoverageReport.full(self.ANTENNAS, duration_s=4.0)
        assert report.live_fraction == 1.0
        assert not report.degraded

    def test_duration_must_be_positive(self):
        with pytest.raises(FaultPlanError, match="duration"):
            FaultPlan().coverage_report(self.ANTENNAS, duration_s=0.0)


class TestSampling:
    def test_same_stream_seed_reproduces_plan(self):
        kwargs = dict(
            reader_ids=["reader-0", "reader-1"],
            duration_s=4.0,
            crash_probability=0.7,
            restart_probability=0.5,
            hang_probability=0.4,
            antenna_silence_probability=0.3,
            antennas=[("reader-0", "ant-0")],
            burst_probability=0.9,
        )
        first = FaultPlan.sample(RandomStream(99), **kwargs)
        second = FaultPlan.sample(RandomStream(99), **kwargs)
        assert first == second
        third = FaultPlan.sample(RandomStream(100), **kwargs)
        assert third != first  # overwhelmingly likely at these rates

    def test_zero_probabilities_give_empty_plan(self):
        plan = FaultPlan.sample(
            RandomStream(1), reader_ids=["reader-0"], duration_s=4.0
        )
        assert plan.is_empty

    def test_sampled_times_inside_pass(self):
        plan = FaultPlan.sample(
            RandomStream(7),
            reader_ids=[f"reader-{i}" for i in range(20)],
            duration_s=4.0,
            crash_probability=1.0,
            restart_probability=1.0,
        )
        assert len(plan.crashes) == 20
        for crash in plan.crashes:
            assert 0.0 <= crash.at_s <= 4.0
            assert crash.restart_at_s is not None
            assert crash.restart_at_s > crash.at_s
