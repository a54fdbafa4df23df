"""Tests for the Gen 2 inventory simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.hypothesis_budget import examples

from repro.protocol.epc import EpcFactory
from repro.protocol.gen2 import (
    SILENT,
    InventorySession,
    QAlgorithm,
    TagChannel,
    inventory_until,
    run_idle_round,
    run_inventory_round,
)
from repro.protocol.timing import DEFAULT_TIMING
from repro.sim.rng import RandomStream


def _population(n):
    return [e.to_hex() for e in EpcFactory().batch(n)]


def perfect_channel(epc):
    return TagChannel(energized=True, reply_decode_p=1.0)


def silent_channel(epc):
    return SILENT


class TestTagChannel:
    def test_valid(self):
        assert TagChannel(True, 0.5).reply_decode_p == 0.5

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            TagChannel(True, 1.5)
        with pytest.raises(ValueError):
            TagChannel(True, -0.1)

    def test_silent_constant(self):
        assert not SILENT.energized


class TestQAlgorithm:
    def test_initial_q(self):
        assert QAlgorithm(q_initial=4).q == 4

    def test_collision_raises_q(self):
        q = QAlgorithm(q_initial=4, c=0.5)
        for _ in range(4):
            q.on_collision()
        assert q.q > 4

    def test_empty_lowers_q(self):
        q = QAlgorithm(q_initial=4, c=0.5)
        for _ in range(4):
            q.on_empty()
        assert q.q < 4

    def test_success_leaves_q(self):
        q = QAlgorithm(q_initial=4)
        q.on_success()
        assert q.q == 4

    def test_q_clamped(self):
        q = QAlgorithm(q_initial=0, q_min=0, q_max=2, c=0.5)
        for _ in range(20):
            q.on_empty()
        assert q.q == 0
        for _ in range(20):
            q.on_collision()
        assert q.q == 2

    def test_reset(self):
        q = QAlgorithm(q_initial=4, c=0.5)
        q.on_collision()
        q.reset()
        assert q.q == 4

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            QAlgorithm(q_initial=20)

    def test_invalid_c(self):
        with pytest.raises(ValueError):
            QAlgorithm(c=0.05)


class TestSession:
    def test_mark_and_check(self):
        session = InventorySession()
        assert not session.is_inventoried("x")
        session.mark("x")
        assert session.is_inventoried("x")
        assert session.inventoried_count == 1

    def test_reset(self):
        session = InventorySession()
        session.mark("x")
        session.reset()
        assert not session.is_inventoried("x")


class TestSingleRound:
    def test_perfect_channel_reads_some_tags(self):
        population = _population(5)
        rng = RandomStream(1)
        result = run_inventory_round(
            population, perfect_channel, rng, QAlgorithm(q_initial=4)
        )
        assert 0 < len(result.unique_reads) <= 5

    def test_silent_population_reads_nothing(self):
        result = run_inventory_round(
            _population(5), silent_channel, RandomStream(1), QAlgorithm()
        )
        assert not result.read_epcs
        assert result.successes == 0

    def test_no_duplicate_reads_within_round(self):
        population = _population(10)
        result = run_inventory_round(
            population, perfect_channel, RandomStream(2), QAlgorithm(q_initial=5)
        )
        assert len(result.read_epcs) == len(set(result.read_epcs))

    def test_session_skips_inventoried(self):
        population = _population(4)
        session = InventorySession()
        for epc in population[:2]:
            session.mark(epc)
        result = run_inventory_round(
            population,
            perfect_channel,
            RandomStream(3),
            QAlgorithm(q_initial=4),
            session=session,
        )
        assert not set(result.read_epcs) & set(population[:2])

    def test_slot_accounting_consistent(self):
        result = run_inventory_round(
            _population(8), perfect_channel, RandomStream(4), QAlgorithm(q_initial=4)
        )
        assert (
            result.empties + result.collisions + result.successes
            == len(result.slots)
        )
        # Frame size 16: all slots examined, in one round.
        assert len(result.slots) == 16
        assert result.rounds == 1

    def test_duration_positive(self):
        result = run_inventory_round(
            _population(3), perfect_channel, RandomStream(5), QAlgorithm()
        )
        assert result.duration_s > 0.0

    def test_time_budget_truncates(self):
        result = run_inventory_round(
            _population(30),
            perfect_channel,
            RandomStream(6),
            QAlgorithm(q_initial=8),
            time_budget_s=0.002,
        )
        assert len(result.slots) < 256

    def test_zero_decode_probability_never_reads(self):
        def bad_channel(epc):
            return TagChannel(energized=True, reply_decode_p=0.0)

        result = run_inventory_round(
            _population(5), bad_channel, RandomStream(7), QAlgorithm()
        )
        assert not result.read_epcs

    def test_invalid_capture_probability(self):
        with pytest.raises(ValueError):
            run_inventory_round(
                _population(2),
                perfect_channel,
                RandomStream(8),
                QAlgorithm(),
                capture_probability=1.5,
            )

    def test_read_times_within_round(self):
        result = run_inventory_round(
            _population(5),
            perfect_channel,
            RandomStream(9),
            QAlgorithm(q_initial=4),
            start_time=10.0,
        )
        for epc, t in result.read_times.items():
            assert t >= 10.0

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=examples(25), deadline=None)
    def test_reads_subset_of_population(self, seed):
        population = _population(6)
        result = run_inventory_round(
            population, perfect_channel, RandomStream(seed), QAlgorithm()
        )
        assert set(result.read_epcs) <= set(population)


class TestInventoryUntil:
    def test_reads_everything_given_time(self):
        population = _population(20)
        result = inventory_until(
            population, perfect_channel, RandomStream(10), time_budget_s=2.0
        )
        assert result.unique_reads == set(population)

    def test_respects_budget(self):
        result = inventory_until(
            _population(50), perfect_channel, RandomStream(11), time_budget_s=0.05
        )
        assert result.duration_s <= 0.05 + 1e-9

    def test_marginal_channel_partial_reads(self):
        def flaky(epc):
            return TagChannel(energized=True, reply_decode_p=0.3)

        population = _population(10)
        result = inventory_until(
            population, flaky, RandomStream(12), time_budget_s=0.3
        )
        # Some but likely not all in a short window.
        assert 0 < len(result.unique_reads) <= 10

    def test_session_persists_across_rounds(self):
        population = _population(8)
        session = InventorySession()
        result = inventory_until(
            population,
            perfect_channel,
            RandomStream(13),
            time_budget_s=2.0,
            session=session,
        )
        # Each tag read exactly once: the session keeps them quiet after.
        assert sorted(result.read_epcs) == sorted(set(result.read_epcs))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            inventory_until(
                _population(1), perfect_channel, RandomStream(14), -1.0
            )

    def test_deterministic_given_seed(self):
        population = _population(12)
        a = inventory_until(
            population, perfect_channel, RandomStream(15), time_budget_s=0.5
        )
        b = inventory_until(
            population, perfect_channel, RandomStream(15), time_budget_s=0.5
        )
        assert a.read_epcs == b.read_epcs
        assert a.duration_s == b.duration_s

    def test_more_tags_take_longer(self):
        small = inventory_until(
            _population(5), perfect_channel, RandomStream(16), time_budget_s=5.0
        )
        large = inventory_until(
            _population(40), perfect_channel, RandomStream(16), time_budget_s=5.0
        )
        assert large.duration_s > small.duration_s

    def test_paper_rate_of_20ms_per_tag(self):
        """Reading ~50 tags should cost on the order of a second — the
        paper's 0.02 s/tag budget (within a factor of ~2.5)."""
        population = _population(50)
        result = inventory_until(
            population, perfect_channel, RandomStream(17), time_budget_s=10.0
        )
        assert result.unique_reads == set(population)
        assert result.duration_s < 2.5


class TestIdleRound:
    """``run_idle_round`` is a round in which no tag contends, run cheaply."""

    @settings(max_examples=examples(60), deadline=None)
    @given(
        q_initial=st.integers(min_value=0, max_value=6),
        steps=st.integers(min_value=0, max_value=30),
        start_time=st.floats(min_value=0.0, max_value=2.0),
        budget=st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.01)),
    )
    def test_matches_a_silent_round(self, q_initial, steps, start_time, budget):
        reference = QAlgorithm(q_initial=q_initial, q_max=6)
        fast = QAlgorithm(q_initial=q_initial, q_max=6)
        for _ in range(steps):
            reference.on_empty()
            fast.on_empty()
        rng = RandomStream(18)
        result = run_inventory_round(
            _population(5),
            silent_channel,
            rng,
            reference,
            start_time=start_time,
            time_budget_s=budget,
        )
        slot_times = []
        duration = run_idle_round(
            fast,
            start_time=start_time,
            time_budget_s=budget,
            slot_times=slot_times,
        )
        assert duration == result.duration_s
        assert slot_times == [s.time for s in result.slots]
        assert all(s.kind == "empty" for s in result.slots)
        assert fast._qfp == reference._qfp
        # A silent round draws nothing either.
        assert rng.random() == RandomStream(18).random()

    @pytest.mark.parametrize("slots", [0, 1, 2, 5])
    def test_budget_ending_exactly_on_a_slot(self, slots):
        timing = DEFAULT_TIMING
        budget = timing.query_s
        for _ in range(slots):
            budget += timing.empty_slot_s
        reference = QAlgorithm(q_initial=3)
        fast = QAlgorithm(q_initial=3)
        result = run_inventory_round(
            _population(3), silent_channel, RandomStream(20), reference,
            time_budget_s=budget,
        )
        assert len(result.slots) == slots
        assert run_idle_round(fast, time_budget_s=budget) == result.duration_s
        assert fast._qfp == reference._qfp

    def test_inventoried_population_is_idle(self):
        population = _population(4)
        session = InventorySession()
        for epc in population:
            session.mark(epc)
        reference = QAlgorithm()
        fast = QAlgorithm()
        result = run_inventory_round(
            population, perfect_channel, RandomStream(19), reference,
            session=session,
        )
        assert run_idle_round(fast) == result.duration_s
        assert result.read_epcs == []
        assert fast._qfp == reference._qfp
