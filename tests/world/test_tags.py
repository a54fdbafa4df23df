"""Tests for tag inlays and orientations."""

import pickle

import pytest

from repro.rf.antenna import STOCK_DIPOLE
from repro.rf.geometry import Vec3
from repro.rf.materials import AIR, BODY, METAL
from repro.world.tags import ALL_ORIENTATIONS, Tag, TagOrientation


def _epc():
    return "3" + "0" * 23


class TestOrientations:
    def test_six_cases(self):
        assert len(ALL_ORIENTATIONS) == 6
        assert {o.case_number for o in ALL_ORIENTATIONS} == {1, 2, 3, 4, 5, 6}

    def test_axes_are_unit(self):
        for orientation in ALL_ORIENTATIONS:
            assert orientation.dipole_axis.norm() == pytest.approx(1.0)
            assert orientation.normal.norm() == pytest.approx(1.0)

    def test_dipole_perpendicular_to_normal(self):
        for orientation in ALL_ORIENTATIONS:
            assert orientation.dipole_axis.dot(orientation.normal) == (
                pytest.approx(0.0)
            )

    def test_perpendicular_cases_are_1_and_5(self):
        perpendicular = {
            o.case_number
            for o in ALL_ORIENTATIONS
            if o.is_perpendicular_to_antenna
        }
        assert perpendicular == {1, 5}

    def test_facing_case_points_at_antenna(self):
        case2 = TagOrientation.CASE_2_HORIZONTAL_FACING
        # Antenna is at -z from the carrier; the face normal points there.
        assert case2.normal.z < 0


class TestTag:
    def test_valid_tag(self):
        tag = Tag(epc=_epc())
        assert tag.orientation is TagOrientation.CASE_2_HORIZONTAL_FACING

    def test_tags_share_the_stock_dipole_and_interned_epcs(self):
        a = Tag(epc="".join(["A"] * 24))
        b = Tag(epc="".join(["A"] * 24))
        assert a.antenna is STOCK_DIPOLE and b.antenna is STOCK_DIPOLE
        assert a.epc is b.epc

    def test_slotted_tag_pickles(self):
        tag = Tag(epc=_epc(), local_position=Vec3(0.1, 0.2, 0.3), label="x")
        assert not hasattr(tag, "__dict__")
        assert pickle.loads(pickle.dumps(tag)) == tag

    def test_epc_length_enforced(self):
        with pytest.raises(ValueError):
            Tag(epc="1234")

    def test_epc_hex_enforced(self):
        with pytest.raises(ValueError):
            Tag(epc="z" * 24)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            Tag(epc=_epc(), mount_gap_m=-0.01)

    def test_detuning_from_mount(self):
        on_metal = Tag(epc=_epc(), mount_material=METAL, mount_gap_m=0.0)
        in_air = Tag(epc=_epc(), mount_material=AIR, mount_gap_m=0.0)
        assert on_metal.detuning_db() > 0.0
        assert in_air.detuning_db() == 0.0

    def test_detuning_decays_with_gap(self):
        near = Tag(epc=_epc(), mount_material=BODY, mount_gap_m=0.01)
        far = Tag(epc=_epc(), mount_material=BODY, mount_gap_m=0.04)
        assert near.detuning_db() > far.detuning_db()

    def test_world_position(self):
        tag = Tag(epc=_epc(), local_position=Vec3(0.1, 0.2, 0.3))
        world = tag.world_position(Vec3(1.0, 0.0, 0.0))
        assert world.is_close(Vec3(1.1, 0.2, 0.3))

    def test_world_dipole_axis(self):
        tag = Tag(epc=_epc(), orientation=TagOrientation.CASE_3_VERTICAL_FACING)
        assert tag.world_dipole_axis().is_close(Vec3.unit_y())
