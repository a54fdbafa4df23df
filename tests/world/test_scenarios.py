"""Structural tests for the scenario builders (fast: no long sims)."""

import pytest

from repro.obs import Recorder
from repro.world.humans import HumanTagPlacement
from repro.world.objects import BoxFace
from repro.world.scenarios.human_tracking import (
    PLACEMENT_SETS,
    TABLE4_CASES,
    TABLE5_CASES,
    build_walk,
)
from repro.world.scenarios.object_tracking import (
    TABLE1_LOCATIONS,
    TABLE3_CASES,
    build_box_cart,
)
from repro.world.scenarios.orientation_spacing import (
    PAPER_SPACINGS_M,
    build_tag_row,
)
from repro.world.scenarios import read_range
from repro.world.scenarios.read_range import (
    PAPER_DISTANCES_M,
    build_tag_plane,
)
from repro.world.tags import TagOrientation


class TestReadRangeScenario:
    def test_twenty_tags(self):
        carrier = build_tag_plane(3.0)
        assert len(carrier.tags) == 20

    def test_grid_pitch_matches_figure1(self):
        carrier = build_tag_plane(3.0)
        xs = sorted({round(t.local_position.x, 4) for t in carrier.tags})
        ys = sorted({round(t.local_position.y, 4) for t in carrier.tags})
        assert len(xs) == 5 and len(ys) == 4
        assert xs[1] - xs[0] == pytest.approx(0.125)
        assert ys[1] - ys[0] == pytest.approx(0.20)

    def test_grid_beyond_coupling_range(self):
        """The paper chose the pitch so tags do not interfere."""
        carrier = build_tag_plane(3.0)
        positions = [t.local_position for t in carrier.tags]
        for i, a in enumerate(positions):
            for b in positions[i + 1:]:
                assert a.distance_to(b) > 0.04

    def test_tags_face_antenna(self):
        carrier = build_tag_plane(3.0)
        assert all(
            t.orientation is TagOrientation.CASE_2_HORIZONTAL_FACING
            for t in carrier.tags
        )

    def test_stationary_at_distance(self):
        carrier = build_tag_plane(7.5)
        assert carrier.motion.position_at(0.0).z == pytest.approx(7.5)

    def test_invalid_distance(self):
        with pytest.raises(ValueError):
            build_tag_plane(0.0)

    def test_paper_distances(self):
        assert PAPER_DISTANCES_M[0] == 1.0
        assert PAPER_DISTANCES_M[-1] == 10.0

    def test_experiment_calls_share_one_plane_per_distance(self, monkeypatch):
        planes = []

        def run_trials(label, task, *args, **kwargs):
            planes.append(task.carriers[0])
            return real_run_trials(label, task, *args, **kwargs)

        real_run_trials = read_range.run_trials
        monkeypatch.setattr(read_range, "run_trials", run_trials)
        for _ in range(2):
            read_range.run_read_range_experiment(
                distances_m=(2.0, 3.0), repetitions=1
            )
        first, second = planes[:2], planes[2:]
        assert [a is b for a, b in zip(first, second)] == [True, True]
        assert first[0] is not first[1]
        # The public builder still hands out a plane of the caller's own.
        assert build_tag_plane(2.0) is not first[0]

    @pytest.mark.parametrize("distances", [(1.0, 1.0), (1.0, 1.0004)])
    def test_experiment_rejects_distances_sharing_a_seed(self, distances):
        # Both distances would seed their trials with the same
        # int(distance * 1000); accepted, (1.0, 1.0) would run twice and
        # return one point.
        with pytest.raises(ValueError, match="share the seed"):
            read_range.run_read_range_experiment(
                distances_m=distances, repetitions=1
            )

    def test_experiment_rejects_bad_distance_before_any_pass(self):
        recorder = Recorder()
        with pytest.raises(ValueError, match="positive"):
            read_range.run_read_range_experiment(
                distances_m=(1.0, -1.0), repetitions=1, recorder=recorder
            )
        assert recorder.observations == []


class TestOrientationSpacingScenario:
    def test_ten_tags(self):
        carrier = build_tag_row(0.01, TagOrientation.CASE_2_HORIZONTAL_FACING)
        assert len(carrier.tags) == 10

    def test_stacked_along_normal(self):
        orientation = TagOrientation.CASE_2_HORIZONTAL_FACING
        carrier = build_tag_row(0.02, orientation)
        positions = [t.local_position for t in carrier.tags]
        span = positions[0].distance_to(positions[-1])
        assert span == pytest.approx(9 * 0.02)
        # Stacking axis is the inlay normal (z for case 2).
        assert {round(p.x, 6) for p in positions} == {0.0}

    def test_paper_spacings(self):
        assert PAPER_SPACINGS_M == (0.0003, 0.004, 0.010, 0.020, 0.040)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_tag_row(-0.01, TagOrientation.CASE_1_AXIAL_EDGE)
        with pytest.raises(ValueError):
            build_tag_row(0.01, TagOrientation.CASE_1_AXIAL_EDGE, tag_count=0)

    def test_moving_pass(self):
        carrier = build_tag_row(0.02, TagOrientation.CASE_4_HORIZONTAL_FLAT)
        assert carrier.motion.speed_mps == pytest.approx(1.0)


class TestObjectScenario:
    def test_twelve_boxes_with_tags(self):
        carrier, boxes = build_box_cart([BoxFace.FRONT])
        assert len(boxes) == 12
        assert len(carrier.tags) == 12

    def test_two_faces_two_tags_each(self):
        carrier, boxes = build_box_cart([BoxFace.FRONT, BoxFace.SIDE_CLOSER])
        assert len(carrier.tags) == 24
        assert all(len(b.all_tags()) == 2 for b in boxes)

    def test_occluders_one_per_box(self):
        carrier, boxes = build_box_cart([BoxFace.FRONT])
        assert len(carrier.occluders) == 12

    def test_lower_layer_top_tags_sandwiched(self):
        carrier, boxes = build_box_cart([BoxFace.TOP])
        gaps = sorted(t.mount_gap_m for t in carrier.tags)
        # Six sandwiched (tiny gap) + six open-top.
        assert sum(1 for g in gaps if g < 0.01) == 6

    def test_empty_faces_rejected(self):
        with pytest.raises(ValueError):
            build_box_cart([])

    def test_table_cases_cover_paper(self):
        assert len(TABLE1_LOCATIONS) == 4
        assert len(TABLE3_CASES) == 6
        antennas = {c.antennas for c in TABLE3_CASES}
        assert antennas == {1, 2}

    def test_cart_clutter_configured(self):
        carrier, _ = build_box_cart([BoxFace.FRONT])
        assert carrier.clutter_sigma_db > 0.0


class TestHumanScenario:
    def test_one_subject(self):
        carrier, humans = build_walk(1, [HumanTagPlacement.FRONT])
        assert len(humans) == 1
        assert len(carrier.tags) == 1
        assert len(carrier.occluders) == 1

    def test_two_subjects(self):
        carrier, humans = build_walk(2, PLACEMENT_SETS["sides"])
        assert len(humans) == 2
        assert len(carrier.tags) == 4

    def test_occluders_reflective(self):
        carrier, _ = build_walk(1, [HumanTagPlacement.FRONT])
        assert all(o.reflective for o in carrier.occluders)

    def test_three_subjects_rejected(self):
        with pytest.raises(ValueError):
            build_walk(3, [HumanTagPlacement.FRONT])

    def test_no_placements_rejected(self):
        with pytest.raises(ValueError):
            build_walk(1, [])

    def test_table_cases_cover_paper(self):
        assert len(TABLE4_CASES) == 6
        assert len(TABLE5_CASES) == 6
        assert all(c.antennas == 1 for c in TABLE4_CASES)
        assert all(c.antennas == 2 for c in TABLE5_CASES)

    def test_placement_sets(self):
        assert len(PLACEMENT_SETS["front_back"]) == 2
        assert len(PLACEMENT_SETS["all"]) == 4
