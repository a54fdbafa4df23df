"""Tests for the end-to-end portal pass simulator."""

import pytest

from repro.core.calibration import PaperSetup
from repro.protocol.epc import EpcFactory
from repro.rf.geometry import Vec3
from repro.rf.materials import METAL
from repro.sim.rng import SeedSequence
from repro.world.motion import LinearPass, StationaryPlacement
from repro.world.portal import (
    dual_antenna_portal,
    dual_reader_portal,
    single_antenna_portal,
)
from repro.world.simulation import (
    CarrierGroup,
    Occluder,
    PortalPassSimulator,
    SimulationParameters,
)
from repro.world.tags import Tag, TagOrientation

SETUP = PaperSetup()


def _tag(epc=None, y=1.0, z=0.0, orientation=TagOrientation.CASE_2_HORIZONTAL_FACING):
    return Tag(
        epc=epc or EpcFactory().next_epc().to_hex(),
        local_position=Vec3(0.0, y, z),
        orientation=orientation,
    )


def _simple_carrier(**kwargs):
    return CarrierGroup(
        motion=LinearPass.centered_lane_pass(
            lane_distance_m=1.0, speed_mps=1.0, half_span_m=1.5, height_m=0.0
        ),
        tags=[_tag()],
        **kwargs,
    )


def _sim(portal=None):
    return PortalPassSimulator(
        portal=portal or single_antenna_portal(),
        env=SETUP.env,
        params=SETUP.params,
    )


class TestBasicPass:
    def test_close_facing_tag_is_read(self):
        result = _sim().run_pass([_simple_carrier()], SeedSequence(1), 0)
        assert len(result.read_epcs) == 1
        assert result.duration_s == pytest.approx(3.0)

    def test_deterministic_given_seed_and_trial(self):
        carrier = _simple_carrier()
        a = _sim().run_pass([carrier], SeedSequence(5), 3)
        b = _sim().run_pass([carrier], SeedSequence(5), 3)
        assert [e.time for e in a.trace] == [e.time for e in b.trace]
        assert a.read_epcs == b.read_epcs

    def test_different_trials_differ(self):
        carrier = _simple_carrier()
        sim = _sim()
        traces = [
            tuple(e.time for e in sim.run_pass([carrier], SeedSequence(5), t).trace)
            for t in range(4)
        ]
        assert len(set(traces)) > 1

    def test_events_well_formed(self):
        result = _sim().run_pass([_simple_carrier()], SeedSequence(2), 0)
        for event in result.trace:
            assert event.reader_id == "reader-0"
            assert event.antenna_id == "ant-0"
            assert event.rssi_dbm < 0.0
            assert 0.0 <= event.time <= result.duration_s

    def test_no_tags_rejected(self):
        carrier = CarrierGroup(
            motion=StationaryPlacement(Vec3(0, 1, 1), duration_s=0.1)
        )
        with pytest.raises(ValueError):
            _sim().run_pass([carrier], SeedSequence(1), 0)

    def test_duplicate_epcs_rejected(self):
        tag = _tag()
        carrier = CarrierGroup(
            motion=StationaryPlacement(Vec3(0, 1, 1), duration_s=0.1),
            tags=[tag, Tag(epc=tag.epc)],
        )
        with pytest.raises(ValueError, match="duplicate"):
            _sim().run_pass([carrier], SeedSequence(1), 0)

    def test_rounds_counted(self):
        result = _sim().run_pass([_simple_carrier()], SeedSequence(3), 0)
        assert result.rounds > 1

    def test_tags_read_counts(self):
        carrier = _simple_carrier()
        result = _sim().run_pass([carrier], SeedSequence(1), 0)
        assert result.tags_read([carrier.tags[0].epc]) in (0, 1)


class TestPhysicalEffects:
    def test_distant_tag_unreadable(self):
        carrier = CarrierGroup(
            motion=StationaryPlacement(Vec3(0, 0, 20.0), duration_s=0.5),
            tags=[_tag()],
        )
        result = _sim().run_pass([carrier], SeedSequence(1), 0)
        assert not result.read_epcs

    def test_metal_occluder_blocks(self):
        """A metal blob between antenna and tag suppresses reads over
        many trials relative to a clear path."""
        sim = _sim()

        def runs(occluders):
            carrier = CarrierGroup(
                motion=StationaryPlacement(Vec3(0, 0, 2.5), duration_s=0.3),
                tags=[_tag(y=1.0)],
                occluders=occluders,
            )
            return sum(
                1
                for t in range(30)
                if sim.run_pass([carrier], SeedSequence(9), t).read_epcs
            )

        clear = runs([])
        blocked = runs(
            [Occluder(Vec3(0.0, 1.0, -1.0), radius_m=0.3, material=METAL)]
        )
        assert blocked < clear

    def test_axial_orientation_reads_less(self):
        """Orientation cases 1/5 (dipole at the antenna) under-perform
        case 2 — the Figure 4 orientation effect."""
        sim = _sim()

        def hit_rate(orientation):
            carrier = CarrierGroup(
                motion=StationaryPlacement(Vec3(0, 0, 3.0), duration_s=0.3),
                tags=[
                    Tag(
                        epc=EpcFactory().next_epc().to_hex(),
                        local_position=Vec3(0, 1, 0),
                        orientation=orientation,
                    )
                ],
            )
            return sum(
                1
                for t in range(30)
                if sim.run_pass([carrier], SeedSequence(11), t).read_epcs
            )

        facing = hit_rate(TagOrientation.CASE_2_HORIZONTAL_FACING)
        axial = hit_rate(TagOrientation.CASE_1_AXIAL_EDGE)
        assert axial < facing

    def test_coupled_tags_read_less(self):
        """Tags stacked sub-centimetre apart suffer (Figure 4)."""
        sim = _sim()

        def mean_reads(spacing):
            factory = EpcFactory()
            tags = [
                Tag(
                    epc=factory.next_epc().to_hex(),
                    local_position=Vec3(0, 1, i * spacing),
                )
                for i in range(5)
            ]
            carrier = CarrierGroup(
                motion=StationaryPlacement(Vec3(0, 0, 1.5), duration_s=0.5),
                tags=tags,
            )
            total = 0
            for t in range(10):
                total += len(
                    sim.run_pass([carrier], SeedSequence(13), t).read_epcs
                )
            return total / 10

        tight = mean_reads(0.002)
        safe = mean_reads(0.05)
        assert tight < safe

    def test_clutter_shared_across_antennas(self):
        """With huge carrier clutter, both antennas of a portal see the
        same fade: a dead tag is dead for both (correlated failures)."""
        sim = _sim(dual_antenna_portal())
        carrier = CarrierGroup(
            motion=StationaryPlacement(Vec3(0, 0, 3.0), duration_s=0.5),
            tags=[_tag()],
            clutter_sigma_db=25.0,
        )
        per_antenna_disagreements = 0
        for trial in range(25):
            result = sim.run_pass([carrier], SeedSequence(17), trial)
            antennas_seen = {e.antenna_id for e in result.trace}
            if len(antennas_seen) == 1 and result.read_epcs:
                per_antenna_disagreements += 1
        # Shared clutter means reads mostly happen on both antennas or
        # neither; single-antenna-only trials should be a minority.
        assert per_antenna_disagreements < 20


class TestMultiReader:
    def test_dual_reader_interference_hurts(self):
        """The paper's reader-redundancy result: two non-DRM readers are
        WORSE than one."""
        carrier_factory = lambda: CarrierGroup(
            motion=LinearPass.centered_lane_pass(
                lane_distance_m=1.0, speed_mps=1.0, half_span_m=1.5, height_m=0.0
            ),
            tags=[_tag()],
            clutter_sigma_db=4.0,
        )
        single = _sim(single_antenna_portal())
        dual = _sim(dual_reader_portal(dense_reader_mode=False))

        def hits(sim):
            carrier = carrier_factory()
            return sum(
                1
                for t in range(25)
                if sim.run_pass([carrier], SeedSequence(21), t).read_epcs
            )

        assert hits(dual) < hits(single)

    def test_drm_restores_reader_redundancy(self):
        """With dense-reader mode the second reader stops hurting."""
        def carrier():
            return CarrierGroup(
                motion=LinearPass.centered_lane_pass(
                    lane_distance_m=1.0, speed_mps=1.0, half_span_m=1.5,
                    height_m=0.0,
                ),
                tags=[_tag()],
                clutter_sigma_db=4.0,
            )

        no_drm = _sim(dual_reader_portal(dense_reader_mode=False))
        with_drm = _sim(dual_reader_portal(dense_reader_mode=True))

        def hits(sim):
            c = carrier()
            return sum(
                1
                for t in range(25)
                if sim.run_pass([c], SeedSequence(23), t).read_epcs
            )

        assert hits(with_drm) > hits(no_drm)

    def test_dual_reader_trace_merged_in_order(self):
        carrier = CarrierGroup(
            motion=StationaryPlacement(Vec3(0, 0, 1.0), duration_s=0.3),
            tags=[_tag()],
        )
        sim = _sim(dual_reader_portal(dense_reader_mode=True))
        result = sim.run_pass([carrier], SeedSequence(29), 0)
        times = [e.time for e in result.trace]
        assert times == sorted(times)


class TestParameters:
    def test_invalid_occluder(self):
        with pytest.raises(ValueError):
            Occluder(Vec3.zero(), radius_m=0.0, material=METAL)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("tdma_slot_s", 0.0),
            ("tdma_slot_s", -0.1),
            ("fading_coherence_m", 0.0),
            ("fading_coherence_m", -0.164),
            ("decode_slope_db", 0.0),
            ("co_channel_probability", 2.0),
            ("co_channel_probability", -0.1),
            ("capture_probability", 1.5),
            ("capture_probability", float("nan")),
        ],
    )
    def test_rejects_values_that_hang_or_crash_a_pass(self, name, value):
        with pytest.raises(ValueError, match=name):
            SimulationParameters(**{name: value})

    def test_defaults_constructible(self):
        params = SimulationParameters()
        assert params.obstruction_cap_db > 0
        sim = PortalPassSimulator(single_antenna_portal())
        assert sim.params.decode_slope_db > 0
