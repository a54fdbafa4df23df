"""Unit and property tests for vectors, rotations, poses, occlusion."""

import math
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.rf.geometry import (
    Pose,
    Rotation,
    Vec3,
    centroid,
    pairwise_distances,
    segment_intersects_sphere,
    segment_sphere_chord_length,
)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
vectors = st.builds(Vec3, finite, finite, finite)
nonzero_vectors = vectors.filter(lambda v: v.norm() > 1e-3)
angles = st.floats(min_value=-math.pi, max_value=math.pi)


def _chord(start, end, centre, radius):
    """The chord of segment ``start``-``end``, through the ray-form kernel."""
    d = end - start
    length = d.norm()
    u = d / length if length > 0.0 else d
    return segment_sphere_chord_length(
        start.x, start.y, start.z, u.x, u.y, u.z, length,
        centre.x, centre.y, centre.z, radius,
    )


class TestVec3:
    def test_slotted_and_picklable(self):
        v = Vec3(1.0, -2.0, 3.5)
        assert not hasattr(v, "__dict__")
        assert pickle.loads(pickle.dumps(v)) == v

    def test_add_sub(self):
        a = Vec3(1, 2, 3)
        b = Vec3(4, 5, 6)
        assert (a + b).is_close(Vec3(5, 7, 9))
        assert (b - a).is_close(Vec3(3, 3, 3))

    def test_scalar_mul_div(self):
        v = Vec3(2, -4, 6)
        assert (v * 0.5).is_close(Vec3(1, -2, 3))
        assert (v / 2).is_close(Vec3(1, -2, 3))
        assert (0.5 * v).is_close(Vec3(1, -2, 3))

    def test_negation(self):
        assert (-Vec3(1, -2, 3)).is_close(Vec3(-1, 2, -3))

    def test_dot_orthogonal(self):
        assert Vec3.unit_x().dot(Vec3.unit_y()) == 0.0

    def test_cross_right_handed(self):
        assert Vec3.unit_x().cross(Vec3.unit_y()).is_close(Vec3.unit_z())

    def test_norm(self):
        assert Vec3(3, 4, 0).norm() == pytest.approx(5.0)

    def test_normalized(self):
        n = Vec3(0, 0, 7).normalized()
        assert n.is_close(Vec3.unit_z())

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            Vec3.zero().normalized()

    def test_distance(self):
        assert Vec3(0, 0, 0).distance_to(Vec3(1, 2, 2)) == pytest.approx(3.0)

    def test_angle_to_perpendicular(self):
        assert Vec3.unit_x().angle_to(Vec3.unit_y()) == pytest.approx(
            math.pi / 2
        )

    def test_angle_to_parallel(self):
        assert Vec3.unit_x().angle_to(Vec3(5, 0, 0)) == pytest.approx(0.0)

    def test_angle_to_zero_raises(self):
        with pytest.raises(ValueError):
            Vec3.unit_x().angle_to(Vec3.zero())

    def test_iteration(self):
        assert list(Vec3(1, 2, 3)) == [1, 2, 3]

    @given(nonzero_vectors)
    def test_normalized_has_unit_norm(self, v):
        assert v.normalized().norm() == pytest.approx(1.0, abs=1e-9)

    @given(vectors, vectors)
    def test_triangle_inequality(self, a, b):
        assert (a + b).norm() <= a.norm() + b.norm() + 1e-9

    @given(nonzero_vectors, nonzero_vectors)
    def test_cross_orthogonal_to_inputs(self, a, b):
        c = a.cross(b)
        if c.norm() > 1e-6:
            assert abs(c.dot(a)) < 1e-6 * a.norm() * c.norm() + 1e-9
            assert abs(c.dot(b)) < 1e-6 * b.norm() * c.norm() + 1e-9


class TestRotation:
    def test_identity_fixes_vectors(self):
        v = Vec3(1, 2, 3)
        assert Rotation.identity().apply(v).is_close(v)

    def test_quarter_turn_about_y(self):
        r = Rotation.about_axis(Vec3.unit_y(), math.pi / 2)
        assert r.apply(Vec3.unit_x()).is_close(Vec3(0, 0, -1), tol=1e-9)

    def test_half_turn_about_z(self):
        r = Rotation.about_axis(Vec3.unit_z(), math.pi)
        assert r.apply(Vec3(1, 1, 0)).is_close(Vec3(-1, -1, 0), tol=1e-9)

    def test_inverse_undoes(self):
        r = Rotation.from_euler(0.3, -0.7, 1.1)
        v = Vec3(1, 2, 3)
        assert r.inverse().apply(r.apply(v)).is_close(v, tol=1e-9)

    def test_compose_order(self):
        # compose(other) applies other first.
        ry = Rotation.about_axis(Vec3.unit_y(), math.pi / 2)
        rz = Rotation.about_axis(Vec3.unit_z(), math.pi / 2)
        combined = ry.compose(rz)
        # rz sends x -> y; ry fixes y.
        assert combined.apply(Vec3.unit_x()).is_close(Vec3.unit_y(), tol=1e-9)

    @given(nonzero_vectors, angles, nonzero_vectors)
    def test_rotation_preserves_norm(self, axis, angle, v):
        r = Rotation.about_axis(axis, angle)
        assert r.apply(v).norm() == pytest.approx(v.norm(), rel=1e-6)

    @given(nonzero_vectors, angles)
    def test_rotation_fixes_axis(self, axis, angle):
        r = Rotation.about_axis(axis, angle)
        u = axis.normalized()
        assert r.apply(u).is_close(u, tol=1e-6)


class TestPose:
    def test_transform_point_translates(self):
        pose = Pose.at(Vec3(10, 0, 0))
        assert pose.transform_point(Vec3(1, 2, 3)).is_close(Vec3(11, 2, 3))

    def test_transform_direction_ignores_translation(self):
        pose = Pose.at(Vec3(10, 0, 0))
        assert pose.transform_direction(Vec3.unit_z()).is_close(Vec3.unit_z())

    def test_translated(self):
        pose = Pose.at(Vec3(1, 1, 1)).translated(Vec3(0, 0, 5))
        assert pose.position.is_close(Vec3(1, 1, 6))

    def test_rotated_pose_transforms(self):
        rot = Rotation.about_axis(Vec3.unit_y(), math.pi / 2)
        pose = Pose(Vec3(5, 0, 0), rot)
        # Local +x maps to world -z, then translate.
        assert pose.transform_point(Vec3.unit_x()).is_close(
            Vec3(5, 0, -1), tol=1e-9
        )


class TestOcclusion:
    def test_segment_through_centre_intersects(self):
        assert segment_intersects_sphere(
            Vec3(-2, 0, 0), Vec3(2, 0, 0), Vec3.zero(), 1.0
        )

    def test_segment_missing_sphere(self):
        assert not segment_intersects_sphere(
            Vec3(-2, 5, 0), Vec3(2, 5, 0), Vec3.zero(), 1.0
        )

    def test_segment_ending_before_sphere(self):
        assert not segment_intersects_sphere(
            Vec3(-5, 0, 0), Vec3(-3, 0, 0), Vec3.zero(), 1.0
        )

    def test_degenerate_segment_inside(self):
        assert segment_intersects_sphere(
            Vec3(0.1, 0, 0), Vec3(0.1, 0, 0), Vec3.zero(), 1.0
        )

    def test_chord_through_centre_is_diameter(self):
        chord = _chord(
            Vec3(-5, 0, 0), Vec3(5, 0, 0), Vec3.zero(), 1.5
        )
        assert chord == pytest.approx(3.0)

    def test_chord_zero_when_missing(self):
        chord = _chord(
            Vec3(-5, 3, 0), Vec3(5, 3, 0), Vec3.zero(), 1.0
        )
        assert chord == 0.0

    def test_chord_clipped_by_segment_end(self):
        # Segment stops at the sphere centre: half the diameter.
        chord = _chord(
            Vec3(-5, 0, 0), Vec3(0, 0, 0), Vec3.zero(), 1.0
        )
        assert chord == pytest.approx(1.0)

    def test_chord_zero_for_a_degenerate_segment(self):
        assert _chord(Vec3.zero(), Vec3.zero(), Vec3.zero(), 1.0) == 0.0

    def test_chord_clipped_by_segment_start(self):
        # Segment starts at the sphere centre: half the diameter.
        chord = _chord(Vec3(0, 0, 0), Vec3(5, 0, 0), Vec3.zero(), 1.0)
        assert chord == pytest.approx(1.0)

    def test_grazing_chord_small(self):
        chord = _chord(
            Vec3(-5, 0.99, 0), Vec3(5, 0.99, 0), Vec3.zero(), 1.0
        )
        assert 0.0 < chord < 0.6

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.1, max_value=2.0),
    )
    def test_chord_never_exceeds_diameter(self, offset, radius):
        chord = _chord(
            Vec3(-10, offset, 0), Vec3(10, offset, 0), Vec3.zero(), radius
        )
        assert 0.0 <= chord <= 2.0 * radius + 1e-9

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.1, max_value=2.0),
    )
    def test_chord_consistent_with_intersection(self, offset, radius):
        start, end = Vec3(-10, offset, 0), Vec3(10, offset, 0)
        chord = _chord(start, end, Vec3.zero(), radius)
        hits = segment_intersects_sphere(start, end, Vec3.zero(), radius)
        if chord > 1e-9:
            assert hits


class TestHelpers:
    def test_centroid(self):
        c = centroid([Vec3(0, 0, 0), Vec3(2, 0, 0), Vec3(1, 3, 0)])
        assert c.is_close(Vec3(1, 1, 0))

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])

    def test_pairwise_distances_count(self):
        pts = [Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)]
        assert len(list(pairwise_distances(pts))) == 6

    def test_pairwise_distances_values(self):
        pts = [Vec3(0, 0, 0), Vec3(3, 4, 0)]
        assert list(pairwise_distances(pts)) == [pytest.approx(5.0)]
