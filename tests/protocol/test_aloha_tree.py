"""Tests for the framed-ALOHA and binary-tree anti-collision baselines."""

import pytest

from repro.protocol.aloha import (
    ALLOWED_FRAME_SIZES,
    choose_frame_size,
    inventory_until_aloha,
    run_aloha_frame,
)
from repro.protocol.epc import EpcFactory
from repro.protocol.gen2 import TagChannel, inventory_until
from repro.protocol.tree import TreeWalkStats, inventory_tree
from repro.sim.rng import RandomStream


def _population(n):
    return [e.to_hex() for e in EpcFactory().batch(n)]


def perfect_channel(epc):
    return TagChannel(energized=True, reply_decode_p=1.0)


class TestChooseFrameSize:
    def test_small_population(self):
        assert choose_frame_size(5) == 16

    def test_matches_population_scale(self):
        assert choose_frame_size(100) == 128

    def test_caps_at_largest(self):
        assert choose_frame_size(10000) == ALLOWED_FRAME_SIZES[-1]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            choose_frame_size(-1)


class TestAlohaFrame:
    def test_reads_subset(self):
        population = _population(10)
        result = run_aloha_frame(
            population, perfect_channel, RandomStream(1), frame_size=16
        )
        assert set(result.read_epcs) <= set(population)

    def test_already_read_skipped(self):
        population = _population(5)
        read = set(population[:3])
        result = run_aloha_frame(
            population,
            perfect_channel,
            RandomStream(2),
            frame_size=16,
            already_read=read,
        )
        assert not set(result.read_epcs) & set(population[:3])

    def test_invalid_frame_size(self):
        with pytest.raises(ValueError):
            run_aloha_frame(
                _population(2), perfect_channel, RandomStream(3), frame_size=0
            )

    def test_slots_equal_frame_size(self):
        result = run_aloha_frame(
            _population(4), perfect_channel, RandomStream(4), frame_size=32
        )
        assert len(result.slots) == 32


class TestAlohaInventory:
    def test_reads_everything(self):
        population = _population(25)
        result = inventory_until_aloha(
            population, perfect_channel, RandomStream(5), time_budget_s=5.0
        )
        assert result.unique_reads == set(population)

    def test_budget_respected(self):
        result = inventory_until_aloha(
            _population(60), perfect_channel, RandomStream(6), time_budget_s=0.05
        )
        assert result.duration_s <= 0.05 + 1e-9

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            inventory_until_aloha(
                _population(1), perfect_channel, RandomStream(7), -0.1
            )

    def test_comparable_to_gen2(self):
        """Both protocols should clear the same population; Gen 2's
        adaptive Q generally finishes at least as fast for unknown
        populations."""
        population = _population(30)
        aloha = inventory_until_aloha(
            population, perfect_channel, RandomStream(8), time_budget_s=10.0
        )
        gen2 = inventory_until(
            population, perfect_channel, RandomStream(8), time_budget_s=10.0
        )
        assert aloha.unique_reads == gen2.unique_reads == set(population)


class TestTreeWalk:
    def test_reads_everything(self):
        population = _population(15)
        result = inventory_tree(population, perfect_channel, RandomStream(9))
        assert result.unique_reads == set(population)

    def test_deterministic_protocol_is_exhaustive(self):
        # Unlike ALOHA, the tree walk cannot get unlucky: any energized,
        # perfectly decodable population is fully identified.
        for seed in (1, 2, 3):
            population = _population(20)
            result = inventory_tree(
                population, perfect_channel, RandomStream(seed)
            )
            assert result.unique_reads == set(population)

    def test_stats_recorded(self):
        stats = TreeWalkStats()
        inventory_tree(
            _population(8), perfect_channel, RandomStream(10), stats=stats
        )
        assert stats.queries > 0
        assert stats.collisions > 0
        assert stats.max_depth > 0

    def test_time_budget_truncates(self):
        population = _population(40)
        result = inventory_tree(
            population,
            perfect_channel,
            RandomStream(11),
            time_budget_s=0.005,
        )
        assert len(result.unique_reads) < 40

    def test_silent_tags_not_found(self):
        def silent(epc):
            return TagChannel(energized=False, reply_decode_p=0.0)

        result = inventory_tree(_population(5), silent, RandomStream(12))
        assert not result.read_epcs

    def test_queries_scale_with_population(self):
        small_stats = TreeWalkStats()
        inventory_tree(
            _population(4), perfect_channel, RandomStream(13), stats=small_stats
        )
        big_stats = TreeWalkStats()
        inventory_tree(
            _population(32), perfect_channel, RandomStream(13), stats=big_stats
        )
        assert big_stats.queries > small_stats.queries


class _ScriptedDecodes:
    """Stand-in random stream whose decode Bernoullis follow a script."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.probabilities = []

    def bernoulli(self, p):
        self.probabilities.append(p)
        return self.outcomes.pop(0)


class TestTreeWalkRetries:
    """A garbled solo reply is re-queried once, then abandoned for the
    walk; leftover budget starts a fresh walk that can still read it.

    Tag A sits under prefix 0 and tag B under prefix 1, so the root
    query collides and each child holds one tag.
    """

    A = "0" * 24
    B = "8" + "0" * 23

    @staticmethod
    def lossy(epc):
        return TagChannel(energized=True, reply_decode_p=0.5)

    def _walk(self, rng, time_budget_s=None):
        stats = TreeWalkStats()
        result = inventory_tree(
            [self.A, self.B],
            self.lossy,
            rng,
            time_budget_s=time_budget_s,
            stats=stats,
        )
        return result, stats

    def test_garbled_reply_requeues_prefix_once_then_abandons(self):
        # A's reply garbles twice (one failed RN16 draw each); B decodes.
        rng = _ScriptedDecodes(False, False, True, True)
        result, stats = self._walk(rng)
        assert [(s.responders, s.kind) for s in result.slots] == [
            ((self.A, self.B), "collision"),
            ((self.A,), "collision"),  # garbled: prefix 0 re-queued
            ((self.A,), "collision"),  # garbled again: A abandoned
            ((self.B,), "success"),
        ]
        assert result.read_epcs == [self.B]
        assert stats.queries == 4
        assert stats.collisions == 1
        assert rng.outcomes == []
        assert rng.probabilities == [0.5] * 4

    def test_retry_that_decodes_reads_the_tag(self):
        rng = _ScriptedDecodes(False, True, True, True, True)
        result, stats = self._walk(rng)
        assert [s.kind for s in result.slots] == [
            "collision", "collision", "success", "success",
        ]
        assert result.read_epcs == [self.A, self.B]
        assert stats.queries == 4

    def test_leftover_budget_starts_a_new_walk(self):
        # Same draws as the abandoning walk, then A decodes on the
        # second walk's root query.
        rng = _ScriptedDecodes(False, False, True, True, True, True)
        result, stats = self._walk(rng, time_budget_s=1.0)
        assert [(s.responders, s.kind) for s in result.slots] == [
            ((self.A, self.B), "collision"),
            ((self.A,), "collision"),
            ((self.A,), "collision"),
            ((self.B,), "success"),
            ((self.A,), "success"),  # second walk: only A still answers
            ((), "empty"),  # third walk's root: everyone read
        ]
        assert result.read_epcs == [self.B, self.A]
        assert result.read_times[self.A] > result.read_times[self.B]
        assert stats.queries == 6
        assert rng.outcomes == []
        assert result.duration_s < 1.0
