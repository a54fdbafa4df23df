"""Tests for antenna patterns and polarization coupling."""

import math
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.rf.antenna import (
    CIRCULAR_TO_LINEAR_LOSS_DB,
    NULL_FLOOR_DB,
    DipoleAntenna,
    PatchAntenna,
    polarization_loss_db,
)
from repro.rf.geometry import Rotation, Vec3

angles = st.floats(min_value=0.01, max_value=math.pi - 0.01)


@pytest.mark.parametrize("antenna", [PatchAntenna(), DipoleAntenna()])
def test_antennas_are_slotted_and_picklable(antenna):
    assert not hasattr(antenna, "__dict__")
    assert pickle.loads(pickle.dumps(antenna)) == antenna


class TestPatchAntenna:
    def test_boresight_gain(self):
        patch = PatchAntenna(boresight_gain_dbi=6.0)
        assert patch.gain_dbi(Vec3.unit_z(), Vec3.unit_z()) == pytest.approx(6.0)

    def test_gain_drops_off_boresight(self):
        patch = PatchAntenna()
        on = patch.gain_dbi(Vec3.unit_z(), Vec3.unit_z())
        off = patch.gain_dbi(Vec3(1, 0, 1).normalized(), Vec3.unit_z())
        assert off < on

    def test_45_degree_rolloff(self):
        patch = PatchAntenna(boresight_gain_dbi=6.0, rolloff_exponent=2.0)
        gain = patch.gain_dbi(Vec3(1, 0, 1).normalized(), Vec3.unit_z())
        # cos^2(45 deg) = 0.5 -> -3 dB.
        assert gain == pytest.approx(3.0, abs=0.05)

    def test_behind_antenna_gets_floor(self):
        patch = PatchAntenna(boresight_gain_dbi=6.0)
        gain = patch.gain_dbi(-Vec3.unit_z(), Vec3.unit_z())
        assert gain == pytest.approx(6.0 + NULL_FLOOR_DB)

    def test_90_degrees_gets_floor(self):
        patch = PatchAntenna(boresight_gain_dbi=6.0)
        gain = patch.gain_dbi(Vec3.unit_x(), Vec3.unit_z())
        assert gain == pytest.approx(6.0 + NULL_FLOOR_DB)

    @given(angles)
    def test_gain_monotone_in_angle(self, theta):
        patch = PatchAntenna()
        direction = Vec3(math.sin(theta), 0.0, math.cos(theta))
        closer = Vec3(math.sin(theta * 0.9), 0.0, math.cos(theta * 0.9))
        assert patch.gain_dbi(closer, Vec3.unit_z()) >= patch.gain_dbi(
            direction, Vec3.unit_z()
        ) - 1e-9


class TestDipoleAntenna:
    def test_broadside_gain(self):
        dipole = DipoleAntenna()
        # Broadside to an x-axis dipole: any direction in the yz plane.
        assert dipole.gain_dbi(Vec3.unit_z(), Vec3.unit_x()) == pytest.approx(
            2.15, abs=0.01
        )

    def test_axial_null(self):
        dipole = DipoleAntenna()
        gain = dipole.gain_dbi(Vec3.unit_x(), Vec3.unit_x())
        assert gain == pytest.approx(2.15 + NULL_FLOOR_DB)

    def test_pattern_symmetric(self):
        dipole = DipoleAntenna()
        forward = dipole.gain_dbi(Vec3.unit_z(), Vec3.unit_x())
        backward = dipole.gain_dbi(-Vec3.unit_z(), Vec3.unit_x())
        assert forward == pytest.approx(backward)

    def test_45_degrees_below_broadside(self):
        dipole = DipoleAntenna()
        broadside = dipole.gain_dbi(Vec3.unit_z(), Vec3.unit_x())
        oblique = dipole.gain_dbi(Vec3(1, 0, 1).normalized(), Vec3.unit_x())
        assert oblique < broadside
        assert oblique > broadside + NULL_FLOOR_DB

    @given(angles)
    def test_gain_bounded(self, theta):
        dipole = DipoleAntenna()
        direction = Vec3(math.cos(theta), math.sin(theta), 0.0)
        gain = dipole.gain_dbi(direction, Vec3.unit_x())
        assert 2.15 + NULL_FLOOR_DB - 1e-9 <= gain <= 2.15 + 1e-9


class TestPolarizationLoss:
    def test_circular_reader_fixed_3db(self):
        loss = polarization_loss_db(
            reader_circular=True,
            tag_axis=Vec3.unit_x(),
            propagation_dir=Vec3.unit_z(),
        )
        assert loss == pytest.approx(CIRCULAR_TO_LINEAR_LOSS_DB)

    def test_circular_insensitive_to_tag_roll(self):
        # Any transverse tag orientation sees the same 3 dB.
        for angle in (0.0, 0.5, 1.0, 1.4):
            axis = Rotation.about_axis(Vec3.unit_z(), angle).apply(Vec3.unit_x())
            loss = polarization_loss_db(True, axis, Vec3.unit_z())
            assert loss == pytest.approx(CIRCULAR_TO_LINEAR_LOSS_DB)

    def test_linear_matched(self):
        loss = polarization_loss_db(
            reader_circular=False,
            tag_axis=Vec3.unit_x(),
            propagation_dir=Vec3.unit_z(),
            reader_pol_axis=Vec3.unit_x(),
        )
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_linear_crossed(self):
        loss = polarization_loss_db(
            reader_circular=False,
            tag_axis=Vec3.unit_y(),
            propagation_dir=Vec3.unit_z(),
            reader_pol_axis=Vec3.unit_x(),
        )
        assert loss > 20.0  # cross-polarized: floor-limited

    def test_linear_45_degrees(self):
        axis = Vec3(1, 1, 0).normalized()
        loss = polarization_loss_db(
            reader_circular=False,
            tag_axis=axis,
            propagation_dir=Vec3.unit_z(),
            reader_pol_axis=Vec3.unit_x(),
        )
        assert loss == pytest.approx(3.01, abs=0.05)

    def test_axial_tag_floor(self):
        # Dipole pointing straight down the propagation path: no
        # transverse component at all.
        loss = polarization_loss_db(
            reader_circular=True,
            tag_axis=Vec3.unit_z(),
            propagation_dir=Vec3.unit_z(),
        )
        assert loss >= -NULL_FLOOR_DB - 1e-9
