"""Exact values and algebraic properties of the reliability estimates."""

import math

import pytest

from repro.core.reliability import (
    CountDistribution,
    ReliabilityEstimate,
    per_location_reliability,
    tracking_success,
)


class TestWilsonInterval:
    def test_known_value(self):
        # 8/10 at z = 1.96: the textbook Wilson interval.
        lo, hi = ReliabilityEstimate(8, 10).wilson_interval()
        assert lo == pytest.approx(0.4902, abs=1e-4)
        assert hi == pytest.approx(0.9433, abs=1e-4)

    @pytest.mark.parametrize("successes", [0, 3, 10])
    def test_mirror_symmetry(self, successes):
        lo, hi = ReliabilityEstimate(successes, 10).wilson_interval()
        mlo, mhi = ReliabilityEstimate(10 - successes, 10).wilson_interval()
        assert lo == pytest.approx(1.0 - mhi)
        assert hi == pytest.approx(1.0 - mlo)

    def test_all_failures_start_at_zero(self):
        lo, hi = ReliabilityEstimate(0, 20).wilson_interval()
        assert lo == 0.0
        assert 0.0 < hi < 0.2

    def test_all_successes_end_at_one(self):
        lo, hi = ReliabilityEstimate(20, 20).wilson_interval()
        assert hi == pytest.approx(1.0)
        assert 0.8 < lo < 1.0

    def test_wider_at_higher_confidence(self):
        est = ReliabilityEstimate(7, 12)
        lo90, hi90 = est.wilson_interval(z=1.645)
        lo99, hi99 = est.wilson_interval(z=2.576)
        assert lo99 < lo90 and hi99 > hi90

    def test_zero_z_collapses_to_point(self):
        lo, hi = ReliabilityEstimate(3, 4).wilson_interval(z=0.0)
        assert lo == pytest.approx(0.75)
        assert hi == pytest.approx(0.75)


class TestPooling:
    def test_combined_is_commutative(self):
        a, b = ReliabilityEstimate(3, 5), ReliabilityEstimate(7, 9)
        assert a.combined_with(b) == b.combined_with(a)

    def test_pooled_equals_chained_combination(self):
        parts = [
            ReliabilityEstimate(1, 2),
            ReliabilityEstimate(4, 4),
            ReliabilityEstimate(0, 3),
        ]
        chained = parts[0].combined_with(parts[1]).combined_with(parts[2])
        assert ReliabilityEstimate.pooled(parts) == chained

    def test_pooled_rate_is_trial_weighted(self):
        pooled = ReliabilityEstimate.pooled(
            [ReliabilityEstimate(1, 1), ReliabilityEstimate(0, 9)]
        )
        assert pooled.rate == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "outcomes, successes",
        [([True], 1), ([False], 0), ([True, False, True], 2), ([0, 1, 1, 1], 3)],
    )
    def test_from_outcomes_counts_truthy(self, outcomes, successes):
        est = ReliabilityEstimate.from_outcomes(outcomes)
        assert (est.successes, est.trials) == (successes, len(outcomes))

    def test_percent_matches_rate(self):
        est = ReliabilityEstimate(2, 3)
        assert est.percent == pytest.approx(100.0 * 2 / 3)


class TestCountDistribution:
    def test_quantile_interpolates_between_counts(self):
        dist = CountDistribution((0, 10), total_tags=10)
        assert dist.quantile(0.3) == pytest.approx(3.0)

    def test_quantile_ignores_input_order(self):
        a = CountDistribution((5, 1, 9, 3), total_tags=10)
        b = CountDistribution((1, 3, 5, 9), total_tags=10)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert a.quantile(q) == b.quantile(q)

    def test_extremes_are_min_and_max(self):
        dist = CountDistribution((4, 7, 2, 9), total_tags=10)
        assert dist.quantile(0.0) == 2.0
        assert dist.quantile(1.0) == 9.0

    def test_mean_fraction(self):
        dist = CountDistribution((15, 20), total_tags=20)
        assert dist.mean_fraction == pytest.approx(17.5 / 20)

    def test_as_reliability_rate_equals_mean_fraction(self):
        dist = CountDistribution((3, 8, 6), total_tags=8)
        assert dist.as_reliability().rate == pytest.approx(dist.mean_fraction)

    def test_nonpositive_total_rejected(self):
        with pytest.raises(ValueError):
            CountDistribution((0,), total_tags=0)


class TestTracking:
    @pytest.mark.parametrize(
        "read, tags, expected",
        [
            ({"a"}, ["a"], True),
            ({"b"}, ["a", "b", "c"], True),
            (set(), ["a", "b"], False),
            ({"x", "y"}, ["a", "b"], False),
        ],
    )
    def test_any_tag_identifies_the_object(self, read, tags, expected):
        assert tracking_success(read, tags) is expected

    def test_redundant_tags_compose_as_one_minus_product(self):
        # Independent per-tag read probabilities p_i: the object is
        # identified with probability 1 - prod(1 - p_i); enumerate all
        # read patterns and weigh each by its probability.
        probs = {"a": 0.6, "b": 0.5, "c": 0.2}
        tags = sorted(probs)
        identified = 0.0
        for mask in range(1 << len(tags)):
            read = {t for i, t in enumerate(tags) if mask >> i & 1}
            weight = math.prod(
                probs[t] if t in read else 1.0 - probs[t] for t in tags
            )
            if tracking_success(read, tags):
                identified += weight
        expected = 1.0 - math.prod(1.0 - p for p in probs.values())
        assert identified == pytest.approx(expected)

    def test_per_location_keeps_every_location(self):
        rows = per_location_reliability(
            {"front": [True, True], "side": [False, True, True]}
        )
        assert rows["front"] == ReliabilityEstimate(2, 2)
        assert rows["side"] == ReliabilityEstimate(2, 3)
