"""Tests for the R_C redundancy model — the paper's analytical core."""

import pytest
from hypothesis import given, strategies as st

from repro.core.redundancy import (
    ReadOpportunity,
    RedundancyConfiguration,
    combined_reliability,
    combined_reliability_correlated,
    marginal_gain,
    opportunities_needed,
    uniform_opportunity_table,
)

probabilities = st.floats(min_value=0.0, max_value=1.0)
prob_lists = st.lists(probabilities, min_size=1, max_size=8)


class TestCombinedReliability:
    def test_single_opportunity_is_identity(self):
        assert combined_reliability([0.63]) == pytest.approx(0.63)

    def test_paper_table3_two_tags(self):
        # Front (87%) + side (83%): R_C = 1 - 0.13*0.17 = 97.8%.
        assert combined_reliability([0.87, 0.83]) == pytest.approx(
            0.9779, abs=1e-4
        )

    def test_paper_human_two_tags(self):
        # Front/back 75% twice: 1 - 0.25^2 = 93.75% (Table 4's 94%).
        assert combined_reliability([0.75, 0.75]) == pytest.approx(0.9375)

    def test_paper_human_four_tags(self):
        # 75, 75, 90, 10: 1 - .25*.25*.10*.90 ~ 99.4% (Table 4's ~99.5%).
        assert combined_reliability([0.75, 0.75, 0.90, 0.10]) == pytest.approx(
            0.9944, abs=1e-3
        )

    def test_eight_opportunities(self):
        # Table 1's four box locations, two tags on each.
        assert combined_reliability([0.87, 0.83, 0.63, 0.29] * 2) == pytest.approx(
            1.0 - (0.13 * 0.17 * 0.37 * 0.71) ** 2
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combined_reliability([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            combined_reliability([0.5, 1.2])

    @given(prob_lists)
    def test_at_least_best_single(self, ps):
        assert combined_reliability(ps) >= max(ps) - 1e-12

    @given(prob_lists, probabilities)
    def test_monotone_in_additional_opportunity(self, ps, extra):
        assert combined_reliability(ps + [extra]) >= combined_reliability(ps) - 1e-12

    @given(prob_lists)
    def test_bounded(self, ps):
        assert 0.0 <= combined_reliability(ps) <= 1.0

    @given(prob_lists)
    def test_order_invariant(self, ps):
        assert combined_reliability(ps) == pytest.approx(
            combined_reliability(list(reversed(ps)))
        )


class TestCorrelatedModel:
    def test_zero_correlation_matches_independence(self):
        ps = [0.8, 0.7]
        assert combined_reliability_correlated(ps, 0.0) == pytest.approx(
            combined_reliability(ps)
        )

    def test_full_correlation_is_best_single(self):
        ps = [0.8, 0.7]
        assert combined_reliability_correlated(ps, 1.0) == pytest.approx(0.8)

    def test_partial_correlation_between(self):
        ps = [0.8, 0.7]
        mid = combined_reliability_correlated(ps, 0.5)
        assert 0.8 < mid < combined_reliability(ps)

    def test_invalid_correlation(self):
        with pytest.raises(ValueError):
            combined_reliability_correlated([0.5], 1.5)

    @given(prob_lists, st.floats(min_value=0.0, max_value=1.0))
    def test_correlation_never_helps(self, ps, rho):
        assert combined_reliability_correlated(ps, rho) <= combined_reliability(
            ps
        ) + 1e-12


class TestOpportunitiesNeeded:
    def test_paper_two_tags_for_96(self):
        # At 63% per tag, two tags reach 86%, three reach 95%...
        assert opportunities_needed(0.63, 0.86) == 2

    def test_high_single_needs_one(self):
        assert opportunities_needed(0.99, 0.95) == 1

    def test_weak_single_needs_many(self):
        assert opportunities_needed(0.10, 0.90) == 22

    def test_perfect_single(self):
        assert opportunities_needed(1.0, 0.999) == 1

    def test_zero_single_rejected(self):
        with pytest.raises(ValueError):
            opportunities_needed(0.0, 0.9)

    def test_target_one_rejected(self):
        with pytest.raises(ValueError):
            opportunities_needed(0.5, 1.0)

    @given(
        st.floats(min_value=0.05, max_value=0.99),
        st.floats(min_value=0.0, max_value=0.999),
    )
    def test_result_actually_reaches_target(self, p, target):
        n = opportunities_needed(p, target)
        assert combined_reliability([p] * n) >= target - 1e-9
        if n > 1:
            assert combined_reliability([p] * (n - 1)) < target


class TestConfiguration:
    def test_opportunity_count(self):
        config = RedundancyConfiguration("x", ("front", "side"), ("a0", "a1"))
        assert config.opportunity_count == 4

    def test_requires_tags_and_antennas(self):
        with pytest.raises(ValueError):
            RedundancyConfiguration("x", (), ("a0",))
        with pytest.raises(ValueError):
            RedundancyConfiguration("x", ("front",), ())

    def test_opportunities_enumerated(self):
        config = RedundancyConfiguration("x", ("front",), ("a0", "a1"))
        table = uniform_opportunity_table({"front": 0.8}, ["a0", "a1"])
        opportunities = config.opportunities(table)
        assert len(opportunities) == 2
        assert all(isinstance(o, ReadOpportunity) for o in opportunities)

    def test_missing_table_entry_raises(self):
        config = RedundancyConfiguration("x", ("front",), ("a0",))
        with pytest.raises(KeyError):
            config.opportunities({})

    def test_expected_reliability_matches_paper_methodology(self):
        # Table 3's 2-antenna front row: 1-(1-0.87)^2 = 98.3%.
        config = RedundancyConfiguration("2a1t", ("front",), ("a0", "a1"))
        table = uniform_opportunity_table({"front": 0.87}, ["a0", "a1"])
        assert config.expected_reliability(table) == pytest.approx(
            0.9831, abs=1e-4
        )

    def test_invalid_opportunity_probability(self):
        with pytest.raises(ValueError):
            ReadOpportunity("t", "a", 1.5)


class TestUniformTable:
    def test_contents(self):
        table = uniform_opportunity_table({"t1": 0.5, "t2": 0.7}, ["a0"])
        assert table == {("t1", "a0"): 0.5, ("t2", "a0"): 0.7}

    def test_empty_antennas_rejected(self):
        with pytest.raises(ValueError):
            uniform_opportunity_table({"t": 0.5}, [])


class TestMarginalGain:
    def test_first_opportunity_full_gain(self):
        assert marginal_gain([], 0.8) == pytest.approx(0.8)

    def test_diminishing_returns(self):
        first = marginal_gain([], 0.6)
        second = marginal_gain([0.6], 0.6)
        third = marginal_gain([0.6, 0.6], 0.6)
        assert first > second > third

    @given(prob_lists, probabilities)
    def test_gain_nonnegative(self, ps, extra):
        assert marginal_gain(ps, extra) >= -1e-12
