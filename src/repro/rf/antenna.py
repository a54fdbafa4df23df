"""Antenna gain patterns and polarization coupling.

Two antenna families matter for the paper's setup:

* the reader's **area (patch) antenna** — circularly polarized,
  broadside gain around 6 dBic, with a cosine-power rolloff off
  boresight;
* the tag's **half-wave dipole** (the Symbol single-dipole inlay) —
  linearly polarized, 2.15 dBi broadside, with the classic
  ``sin``-shaped doughnut pattern and deep nulls along the dipole axis.

Orientation effects in the paper (Figure 3/4) come from two distinct
mechanisms modelled separately here: *pattern loss* (the tag null facing
the reader) and *polarization mismatch* (a circular reader antenna loses
a fixed 3 dB to any linear tag, so rotation in the antenna plane is
forgiven, but a dipole pointed at the antenna still dies on pattern).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Vec3, vector_angle
from .units import db_to_linear, linear_to_db

#: Fixed loss when a circularly polarized reader antenna illuminates a
#: linearly polarized tag, regardless of the tag's roll angle.
CIRCULAR_TO_LINEAR_LOSS_DB = 3.0

#: Pattern floor: no physical antenna has a mathematically perfect null;
#: scattering off the environment fills nulls in to roughly -25 dB.
NULL_FLOOR_DB = -25.0

#: The null floor as a linear power ratio, converted once.
_NULL_FLOOR = db_to_linear(NULL_FLOOR_DB)


@dataclass(frozen=True, slots=True)
class PatchAntenna:
    """Circularly polarized area antenna, boresight along +z of its pose.

    Parameters
    ----------
    boresight_gain_dbi:
        Peak gain. 6 dBic is typical for the AR400's area antennas.
    rolloff_exponent:
        Power of the cosine rolloff; 2.0 gives roughly a 70-degree
        3 dB beamwidth, matching a wide portal antenna.
    """

    boresight_gain_dbi: float = 6.0
    rolloff_exponent: float = 2.0
    circular: bool = True

    def gain_dbi(self, direction: Vec3, boresight: Vec3) -> float:
        """Gain toward ``direction`` for an antenna whose boresight is ``boresight``.

        Both vectors are in world coordinates; only their angle matters.
        Directions behind the antenna get the null floor.
        """
        return self.gain_at_angle_dbi(boresight.angle_to(direction))

    def gain_at_angle_dbi(self, angle: float) -> float:
        """Gain at ``angle`` radians off boresight (the pattern itself)."""
        if angle >= math.pi / 2.0:
            return self.boresight_gain_dbi + NULL_FLOOR_DB
        pattern = math.cos(angle) ** self.rolloff_exponent
        # max(pattern, _NULL_FLOOR), NaN included, without the call.
        if _NULL_FLOOR > pattern:
            pattern = _NULL_FLOOR
        pattern_db = linear_to_db(pattern)
        return self.boresight_gain_dbi + pattern_db


@dataclass(frozen=True, slots=True)
class DipoleAntenna:
    """Half-wave dipole tag antenna.

    The pattern is the textbook ``cos((pi/2) cos(theta)) / sin(theta)``
    doughnut around the dipole axis; gain peaks broadside (2.15 dBi) and
    nulls along the axis.
    """

    broadside_gain_dbi: float = 2.15

    def gain_dbi(self, direction: Vec3, dipole_axis: Vec3) -> float:
        """Gain toward ``direction`` for a dipole whose axis is ``dipole_axis``."""
        return self.gain_at_angle_dbi(dipole_axis.angle_to(direction))

    def gain_at_angle_dbi(self, theta: float) -> float:
        """Gain at ``theta`` radians from the dipole axis (the pattern itself)."""
        sin_theta = math.sin(theta)
        if sin_theta < 1e-6:
            return self.broadside_gain_dbi + NULL_FLOOR_DB
        pattern = math.cos((math.pi / 2.0) * math.cos(theta)) / sin_theta
        power = pattern * pattern
        # max(power, _NULL_FLOOR), as in the patch.
        if _NULL_FLOOR > power:
            power = _NULL_FLOOR
        pattern_db = linear_to_db(power)
        return self.broadside_gain_dbi + pattern_db


#: The stock half-wave dipole, shared by every tag that does not bring
#: its own (the antenna is immutable, so one instance serves all).
STOCK_DIPOLE = DipoleAntenna()


def polarization_loss_db(
    reader_circular: bool,
    tag_axis: Vec3,
    propagation_dir: Vec3,
    reader_pol_axis: Vec3 = Vec3.unit_x(),
) -> float:
    """Polarization mismatch between reader antenna and a linear tag.

    Parameters
    ----------
    reader_circular:
        Circular reader polarization costs a constant 3 dB against any
        linear tag but is insensitive to tag roll; linear reader
        polarization matches or mismatches with ``cos^2`` of the angle
        between the projected axes.
    tag_axis:
        Tag dipole axis (world frame).
    propagation_dir:
        Unit vector from reader to tag; polarization lives in the plane
        transverse to it.
    reader_pol_axis:
        For a linearly polarized reader antenna, its E-field axis.
    """
    return transverse_polarization_loss_db(
        reader_circular,
        tag_axis.x,
        tag_axis.y,
        tag_axis.z,
        propagation_dir.x,
        propagation_dir.y,
        propagation_dir.z,
        reader_pol_axis.x,
        reader_pol_axis.y,
        reader_pol_axis.z,
    )


def transverse_polarization_loss_db(
    reader_circular: bool,
    ax: float,
    ay: float,
    az: float,
    dx: float,
    dy: float,
    dz: float,
    px: float = 1.0,
    py: float = 0.0,
    pz: float = 0.0,
) -> float:
    """:func:`polarization_loss_db` on plain floats.

    ``a`` is the tag axis, ``d`` the propagation direction and ``p``
    the reader's E-field axis (default: x). The direction is normalised
    again even when the caller passes a unit vector, exactly as the
    vector form always did, so both forms give the same bits.
    """
    n = math.sqrt(dx * dx + dy * dy + dz * dz)
    if n < 1e-12:
        raise ValueError("cannot normalize a zero vector")
    kx = dx / n
    ky = dy / n
    kz = dz / n
    # Project the tag axis onto the transverse plane.
    along = ax * kx + ay * ky + az * kz
    tx = ax - kx * along
    ty = ay - ky * along
    tz = az - kz * along
    if math.sqrt(tx * tx + ty * ty + tz * tz) < 1e-9:
        # Dipole pointing straight at the antenna: no transverse component.
        # Pattern loss already handles this; report the floor here too.
        return -NULL_FLOOR_DB
    if reader_circular:
        return CIRCULAR_TO_LINEAR_LOSS_DB
    along = px * kx + py * ky + pz * kz
    rx = px - kx * along
    ry = py - ky * along
    rz = pz - kz * along
    if math.sqrt(rx * rx + ry * ry + rz * rz) < 1e-9:
        return -NULL_FLOOR_DB
    angle = vector_angle(tx, ty, tz, rx, ry, rz)
    cos2 = math.cos(angle) ** 2
    return -linear_to_db(max(cos2, _NULL_FLOOR))
