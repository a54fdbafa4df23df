"""3-D vectors, orientations, and poses for the simulated lab.

The coordinate convention throughout the library mirrors the paper's
experimental setup (Figure 1):

* **x** — horizontal, parallel to the antenna face (the direction carts
  move in the tracking experiments);
* **y** — vertical (height above the floor);
* **z** — boresight, pointing *away* from the reader antenna into the
  read zone.

An :class:`Orientation` stores a full rotation so that both a tag's
dipole axis and its patch normal are well defined; the paper's six tag
orientations (Figure 3) are provided as named constructors in
:mod:`repro.world.tags`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple


@dataclass(frozen=True, slots=True)
class Vec3:
    """An immutable 3-D vector with the handful of operations we need."""

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, scalar: float) -> "Vec3":
        return Vec3(self.x * scalar, self.y * scalar, self.z * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec3":
        return Vec3(self.x / scalar, self.y / scalar, self.z / scalar)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
        yield self.z

    def dot(self, other: "Vec3") -> float:
        """Scalar (dot) product."""
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        """Vector (cross) product, right-handed."""
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        """Euclidean length."""
        return math.sqrt(self.dot(self))

    def normalized(self) -> "Vec3":
        """Unit vector in the same direction.

        Raises
        ------
        ValueError
            If the vector is (numerically) zero.
        """
        n = self.norm()
        if n < 1e-12:
            raise ValueError("cannot normalize a zero vector")
        return self / n

    def distance_to(self, other: "Vec3") -> float:
        """Euclidean distance to ``other``."""
        return (self - other).norm()

    def angle_to(self, other: "Vec3") -> float:
        """Angle in radians between this vector and ``other`` (0..pi)."""
        return vector_angle(
            self.x, self.y, self.z, other.x, other.y, other.z
        )

    def is_close(self, other: "Vec3", tol: float = 1e-9) -> bool:
        """True when all components match within ``tol``."""
        return (
            abs(self.x - other.x) <= tol
            and abs(self.y - other.y) <= tol
            and abs(self.z - other.z) <= tol
        )

    @staticmethod
    def zero() -> "Vec3":
        return Vec3(0.0, 0.0, 0.0)

    @staticmethod
    def unit_x() -> "Vec3":
        return Vec3(1.0, 0.0, 0.0)

    @staticmethod
    def unit_y() -> "Vec3":
        return Vec3(0.0, 1.0, 0.0)

    @staticmethod
    def unit_z() -> "Vec3":
        return Vec3(0.0, 0.0, 1.0)


ORIGIN = Vec3.zero()


def vector_angle(
    ax: float, ay: float, az: float, bx: float, by: float, bz: float
) -> float:
    """Angle in radians between vectors ``a`` and ``b`` (0..pi).

    The plain-float form of :meth:`Vec3.angle_to`, with the same
    operations in the same order, so both give the same bits.
    """
    denom = math.sqrt(ax * ax + ay * ay + az * az) * math.sqrt(
        bx * bx + by * by + bz * bz
    )
    if denom < 1e-24:
        raise ValueError("angle with a zero vector is undefined")
    # Clamped as ``max(-1.0, min(1.0, cosine))`` clamps it, NaN
    # included, without the builtin calls.
    cosine = (ax * bx + ay * by + az * bz) / denom
    if not cosine < 1.0:
        cosine = 1.0
    if not cosine > -1.0:
        cosine = -1.0
    return math.acos(cosine)


@dataclass(frozen=True)
class Rotation:
    """A rotation stored as a 3x3 row-major orthonormal matrix."""

    rows: Tuple[Tuple[float, float, float], ...]

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))

    @staticmethod
    def about_axis(axis: Vec3, angle_rad: float) -> "Rotation":
        """Rodrigues rotation about ``axis`` by ``angle_rad`` (right-hand rule)."""
        u = axis.normalized()
        c = math.cos(angle_rad)
        s = math.sin(angle_rad)
        t = 1.0 - c
        return Rotation(
            (
                (c + u.x * u.x * t, u.x * u.y * t - u.z * s, u.x * u.z * t + u.y * s),
                (u.y * u.x * t + u.z * s, c + u.y * u.y * t, u.y * u.z * t - u.x * s),
                (u.z * u.x * t - u.y * s, u.z * u.y * t + u.x * s, c + u.z * u.z * t),
            )
        )

    @staticmethod
    def from_euler(yaw: float, pitch: float, roll: float) -> "Rotation":
        """Compose intrinsic rotations: yaw about y, then pitch about x, then roll about z."""
        r_yaw = Rotation.about_axis(Vec3.unit_y(), yaw)
        r_pitch = Rotation.about_axis(Vec3.unit_x(), pitch)
        r_roll = Rotation.about_axis(Vec3.unit_z(), roll)
        return r_yaw.compose(r_pitch).compose(r_roll)

    def apply(self, v: Vec3) -> Vec3:
        """Rotate vector ``v``."""
        r = self.rows
        return Vec3(
            r[0][0] * v.x + r[0][1] * v.y + r[0][2] * v.z,
            r[1][0] * v.x + r[1][1] * v.y + r[1][2] * v.z,
            r[2][0] * v.x + r[2][1] * v.y + r[2][2] * v.z,
        )

    def compose(self, other: "Rotation") -> "Rotation":
        """Return the rotation equivalent to applying ``other`` first, then ``self``."""
        a = self.rows
        b = other.rows
        rows = tuple(
            tuple(
                sum(a[i][k] * b[k][j] for k in range(3))
                for j in range(3)
            )
            for i in range(3)
        )
        return Rotation(rows)  # type: ignore[arg-type]

    def inverse(self) -> "Rotation":
        """Inverse rotation (transpose, since the matrix is orthonormal)."""
        r = self.rows
        return Rotation(
            (
                (r[0][0], r[1][0], r[2][0]),
                (r[0][1], r[1][1], r[2][1]),
                (r[0][2], r[1][2], r[2][2]),
            )
        )


@dataclass(frozen=True)
class Pose:
    """A rigid-body pose: position plus orientation."""

    position: Vec3
    rotation: Rotation

    @staticmethod
    def at(position: Vec3) -> "Pose":
        """Pose at ``position`` with identity orientation."""
        return Pose(position, Rotation.identity())

    def transform_point(self, local: Vec3) -> Vec3:
        """Map a point from the body frame to the world frame."""
        return self.position + self.rotation.apply(local)

    def transform_direction(self, local: Vec3) -> Vec3:
        """Map a direction (no translation) from body to world frame."""
        return self.rotation.apply(local)

    def translated(self, offset: Vec3) -> "Pose":
        """A copy of this pose shifted by ``offset`` in the world frame."""
        return Pose(self.position + offset, self.rotation)


def segment_intersects_sphere(
    start: Vec3, end: Vec3, centre: Vec3, radius: float
) -> bool:
    """True when the segment ``start``-``end`` passes within ``radius`` of ``centre``.

    Used by the occlusion models (metal box contents, human bodies) to
    decide whether a propagation path is blocked.
    """
    seg = end - start
    seg_len2 = seg.dot(seg)
    if seg_len2 < 1e-24:
        return start.distance_to(centre) <= radius
    t = (centre - start).dot(seg) / seg_len2
    t = max(0.0, min(1.0, t))
    closest = start + seg * t
    return closest.distance_to(centre) <= radius


def segment_sphere_chord_length(
    sx: float,
    sy: float,
    sz: float,
    ux: float,
    uy: float,
    uz: float,
    length: float,
    cx: float,
    cy: float,
    cz: float,
    radius: float,
) -> float:
    """Length of the part of a segment inside the sphere at ``c``.

    The segment starts at ``s`` and runs ``length`` metres along the
    unit vector ``u``: for a segment from ``start`` to ``end``,
    ``length`` is the norm of ``end - start`` and ``u`` is that
    difference divided by ``length``. A ray-march over many spheres
    computes both once and passes them to every call.

    Attenuation through lossy material scales with the traversed
    thickness, so occlusion models need the chord length and not just a
    hit/miss answer. Returns 0.0 when the segment misses the sphere or
    has (numerically) no length.
    """
    if length < 1e-12:
        return 0.0
    ox = sx - cx
    oy = sy - cy
    oz = sz - cz
    b = ox * ux + oy * uy + oz * uz
    c = (ox * ox + oy * oy + oz * oz) - radius * radius
    disc = b * b - c
    if disc <= 0.0:
        return 0.0
    sqrt_disc = math.sqrt(disc)
    t0 = -b - sqrt_disc
    t1 = -b + sqrt_disc
    # Clip the chord to the segment extent. Each test below returns
    # what ``max``/``min`` would, ties and NaN included, without the
    # builtin calls.
    if t0 < 0.0:
        t0 = 0.0
    if length < t1:
        t1 = length
    chord = t1 - t0
    return chord if chord > 0.0 else 0.0


def centroid(points: Sequence[Vec3]) -> Vec3:
    """Arithmetic mean of a non-empty sequence of points."""
    if not points:
        raise ValueError("centroid of an empty point set is undefined")
    total = Vec3.zero()
    for p in points:
        total = total + p
    return total / float(len(points))


def pairwise_distances(points: Sequence[Vec3]) -> Iterable[float]:
    """Yield the distance for every unordered pair of points."""
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            yield points[i].distance_to(points[j])
