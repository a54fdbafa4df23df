"""Tests for Gen 2 air-interface timing."""

import pickle

import pytest

from repro.protocol.timing import (
    DEFAULT_TIMING,
    PAPER_SECONDS_PER_TAG,
    Gen2Timing,
)


class TestValidation:
    def test_default_is_valid(self):
        assert DEFAULT_TIMING.tari_s == 25e-6
        assert DEFAULT_TIMING.tag_encoding_symbols_per_bit == 4

    def test_bad_tari(self):
        with pytest.raises(ValueError):
            Gen2Timing(tari_s=0.0)

    def test_bad_blf(self):
        with pytest.raises(ValueError):
            Gen2Timing(blf_hz=-1.0)

    def test_bad_encoding(self):
        with pytest.raises(ValueError):
            Gen2Timing(tag_encoding_symbols_per_bit=3)


class TestDurations:
    def test_slot_ordering(self):
        # Success costs the most airtime, empties the least.
        t = DEFAULT_TIMING
        assert t.empty_slot_s < t.collision_slot_s < t.success_slot_s

    def test_all_durations_positive(self):
        t = DEFAULT_TIMING
        for value in (
            t.query_s,
            t.query_rep_s,
            t.ack_s,
            t.rn16_s,
            t.epc_reply_s,
            t.t1_s,
            t.t2_s,
        ):
            assert value > 0.0

    def test_epc_reply_longer_than_rn16(self):
        assert DEFAULT_TIMING.epc_reply_s > DEFAULT_TIMING.rn16_s

    def test_miller_slows_tag_replies(self):
        fm0 = Gen2Timing(tag_encoding_symbols_per_bit=1)
        miller4 = Gen2Timing(tag_encoding_symbols_per_bit=4)
        assert miller4.rn16_s > fm0.rn16_s

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_TIMING.reader_command_s(-1)
        with pytest.raises(ValueError):
            DEFAULT_TIMING.tag_reply_s(-1)

    def test_success_slot_in_low_milliseconds(self):
        # A full Miller-4 singulation is on the order of 2-10 ms.
        assert 1e-3 < DEFAULT_TIMING.success_slot_s < 10e-3


class TestDerivedDurationsCached:
    NAMES = (
        "reader_bit_s",
        "tag_bit_s",
        "t1_s",
        "t2_s",
        "query_s",
        "query_rep_s",
        "ack_s",
        "rn16_s",
        "epc_reply_s",
        "empty_slot_s",
        "collision_slot_s",
        "success_slot_s",
    )

    def test_cached_values_equal_the_expressions(self):
        t = Gen2Timing(tari_s=12.5e-6, blf_hz=320e3, tag_encoding_symbols_per_bit=2)
        values = {name: getattr(t, name) for name in self.NAMES}
        # Second access reads the cache and must not change anything.
        assert {name: getattr(t, name) for name in self.NAMES} == values
        assert values["query_s"] == t.reader_command_s(22)
        assert values["epc_reply_s"] == t.tag_reply_s(128)
        assert values["empty_slot_s"] == (
            t.reader_command_s(4) + max(10.0 * t.tag_bit_s, 25e-6)
            + 3.0 * t.tag_bit_s
        )

    def test_pickle_carries_fields_only(self):
        t = Gen2Timing(tari_s=6.25e-6)
        before = len(pickle.dumps(t))
        t.success_slot_s
        assert len(pickle.dumps(t)) == before
        restored = pickle.loads(pickle.dumps(t))
        assert restored == t
        assert restored.success_slot_s == t.success_slot_s


class TestRoundDuration:
    def test_additive(self):
        t = DEFAULT_TIMING
        total = t.round_duration_s(empty=3, collisions=2, successes=1)
        expected = (
            t.query_s
            + 3 * t.empty_slot_s
            + 2 * t.collision_slot_s
            + 1 * t.success_slot_s
        )
        assert total == pytest.approx(expected)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_TIMING.round_duration_s(-1, 0, 0)


class TestThroughput:
    def test_matches_paper_rule_of_thumb(self):
        """The paper budgets ~0.02 s per tag; the default timing profile
        must land in that neighbourhood (within 2x either way)."""
        rate = DEFAULT_TIMING.effective_read_rate_tags_per_s()
        seconds_per_tag = 1.0 / rate
        assert (
            PAPER_SECONDS_PER_TAG / 2.5
            <= seconds_per_tag
            <= PAPER_SECONDS_PER_TAG * 2.0
        )

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            DEFAULT_TIMING.effective_read_rate_tags_per_s(0.0)
        with pytest.raises(ValueError):
            DEFAULT_TIMING.effective_read_rate_tags_per_s(1.5)

    def test_higher_efficiency_higher_rate(self):
        low = DEFAULT_TIMING.effective_read_rate_tags_per_s(0.2)
        high = DEFAULT_TIMING.effective_read_rate_tags_per_s(0.4)
        assert high > low
