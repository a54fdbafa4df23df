"""Carrier motion through the portal's read zone.

The paper's tracking experiments move tags past a fixed antenna on a
cart (objects) or on foot (humans) at roughly 1 m/s and 1 m lateral
distance. A :class:`LinearPass` captures exactly that: a straight
world-frame trajectory plus the time window during which the reader can
possibly see the tags.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rf.geometry import Vec3

#: Speed used in all the paper's mobile experiments.
PAPER_PASS_SPEED_MPS = 1.0

#: Lateral tag-antenna distance used in the paper's mobile experiments.
PAPER_LANE_DISTANCE_M = 1.0


@dataclass(frozen=True)
class LinearPass:
    """Uniform straight-line motion of a carrier origin.

    Parameters
    ----------
    start_position:
        Carrier origin at ``t = 0``.
    velocity:
        Constant velocity vector (m/s).
    duration_s:
        Length of the pass; positions are defined on ``[0, duration_s]``.
    """

    start_position: Vec3
    velocity: Vec3
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0.0:
            raise ValueError(
                f"pass duration must be positive, got {self.duration_s!r}"
            )

    def position_at(self, t: float) -> Vec3:
        """Carrier origin at time ``t`` (clamped to the pass window)."""
        # min(max(t, 0.0), duration), ties and NaN included, without
        # the builtin calls.
        clamped = t
        if 0.0 > clamped:
            clamped = 0.0
        if self.duration_s < clamped:
            clamped = self.duration_s
        # start + velocity * clamped, component by component: one Vec3.
        s = self.start_position
        v = self.velocity
        return Vec3(
            s.x + v.x * clamped, s.y + v.y * clamped, s.z + v.z * clamped
        )

    @property
    def end_position(self) -> Vec3:
        return self.position_at(self.duration_s)

    @property
    def speed_mps(self) -> float:
        return self.velocity.norm()

    @staticmethod
    def centered_lane_pass(
        lane_distance_m: float = PAPER_LANE_DISTANCE_M,
        speed_mps: float = PAPER_PASS_SPEED_MPS,
        half_span_m: float = 2.0,
        height_m: float = 1.0,
    ) -> "LinearPass":
        """The paper's standard pass: along +x, centred on the antenna.

        The carrier starts ``half_span_m`` before the antenna's x
        position (x = 0) and ends the same distance after, at constant
        ``speed_mps``, in a lane ``lane_distance_m`` in front of the
        antenna (z axis) at ``height_m``.
        """
        if lane_distance_m <= 0.0:
            raise ValueError(
                f"lane distance must be positive, got {lane_distance_m!r}"
            )
        if speed_mps <= 0.0:
            raise ValueError(f"speed must be positive, got {speed_mps!r}")
        if half_span_m <= 0.0:
            raise ValueError(
                f"half span must be positive, got {half_span_m!r}"
            )
        duration = 2.0 * half_span_m / speed_mps
        return LinearPass(
            start_position=Vec3(-half_span_m, height_m, lane_distance_m),
            velocity=Vec3(speed_mps, 0.0, 0.0),
            duration_s=duration,
        )


@dataclass(frozen=True)
class StationaryPlacement:
    """A carrier that does not move (the Figure 2 read-range grid)."""

    position: Vec3
    duration_s: float = 1.0

    def position_at(self, t: float) -> Vec3:
        return self.position
