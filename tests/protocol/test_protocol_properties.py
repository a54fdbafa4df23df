"""Property-based tests on protocol invariants (hypothesis)."""

from hypothesis import given, settings, strategies as st

from tests.hypothesis_budget import examples

from repro.protocol.epc import EpcFactory
from repro.protocol.gen2 import (
    InventorySession,
    QAlgorithm,
    TagChannel,
    inventory_until,
    run_inventory_round,
)
from repro.protocol.timing import DEFAULT_TIMING
from repro.sim.rng import RandomStream

fast = settings(max_examples=examples(30), deadline=None)


def _population(n):
    return [e.to_hex() for e in EpcFactory().batch(n)]


class TestRoundInvariants:
    @given(
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @fast
    def test_each_tag_read_at_most_once_per_round(self, n, p, seed):
        population = _population(n)

        def channel(epc):
            return TagChannel(energized=True, reply_decode_p=p)

        result = run_inventory_round(
            population, channel, RandomStream(seed), QAlgorithm()
        )
        assert len(result.read_epcs) == len(set(result.read_epcs))

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @fast
    def test_slot_count_never_exceeds_frame(self, n, seed):
        population = _population(n)

        def channel(epc):
            return TagChannel(energized=True, reply_decode_p=1.0)

        q_algo = QAlgorithm(q_initial=4)
        result = run_inventory_round(
            population, channel, RandomStream(seed), q_algo
        )
        assert len(result.slots) <= 16

    @given(
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @fast
    def test_duration_equals_slot_sum(self, n, seed):
        population = _population(n)

        def channel(epc):
            return TagChannel(energized=True, reply_decode_p=1.0)

        result = run_inventory_round(
            population, channel, RandomStream(seed), QAlgorithm()
        )
        t = DEFAULT_TIMING
        expected = t.round_duration_s(
            result.empties, result.collisions, result.successes
        )
        assert abs(result.duration_s - expected) < 1e-9

    @given(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @fast
    def test_session_marked_iff_read(self, n, seed):
        population = _population(max(n, 1))
        session = InventorySession()

        def channel(epc):
            return TagChannel(energized=True, reply_decode_p=0.8)

        result = run_inventory_round(
            population,
            channel,
            RandomStream(seed),
            QAlgorithm(),
            session=session,
        )
        for epc in result.read_epcs:
            assert session.is_inventoried(epc)
        assert session.inventoried_count == len(set(result.read_epcs))


class TestContinuousInvariants:
    @given(
        st.integers(min_value=1, max_value=25),
        st.floats(min_value=0.3, max_value=1.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @fast
    def test_unique_reads_monotone_in_budget(self, n, p, seed):
        population = _population(n)

        def channel(epc):
            return TagChannel(energized=True, reply_decode_p=p)

        short = inventory_until(
            population, channel, RandomStream(seed), time_budget_s=0.05
        )
        long = inventory_until(
            population, channel, RandomStream(seed), time_budget_s=1.0
        )
        assert len(long.unique_reads) >= len(short.unique_reads)

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @fast
    def test_dead_fraction_never_read(self, n, seed):
        population = _population(n)
        dead = set(population[:: 2])

        def channel(epc):
            if epc in dead:
                return TagChannel(energized=False, reply_decode_p=0.0)
            return TagChannel(energized=True, reply_decode_p=1.0)

        result = inventory_until(
            population, channel, RandomStream(seed), time_budget_s=1.0
        )
        assert not (result.unique_reads & dead)
        assert result.unique_reads == set(population) - dead
