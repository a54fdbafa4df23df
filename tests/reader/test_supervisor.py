"""Tests for supervised reader operations: retry, health, failover."""

import pytest

from repro.reader.supervisor import (
    Promotion,
    ReaderFailoverGroup,
    ReaderHealth,
    RetryPolicy,
    SupervisedReader,
    SupervisorError,
)
from repro.reader.wire import (
    PolledInterface,
    ReaderUnreachable,
    TransportTimeout,
    render_tag_list,
)
from repro.sim.events import TagReadEvent


def _event(t, epc="A" * 24, reader="reader-0"):
    return TagReadEvent(t, epc, reader, "ant-0", rssi_dbm=-60.0)


class FlakyTransport:
    """Fails the first ``failures`` polls, then answers from a buffer."""

    def __init__(self, events, failures, error=TransportTimeout):
        self._interface = PolledInterface(events)
        self._failures = failures
        self._error = error
        self.polls = []

    def poll(self, now):
        self.polls.append(now)
        if self._failures > 0:
            self._failures -= 1
            raise self._error("injected")
        return self._interface.poll(now)


class DeadTransport:
    def poll(self, now):
        raise ReaderUnreachable("dead")


class ScriptedTransport:
    """Answers (with an empty tag list) or fails, poll by poll."""

    def __init__(self, answers):
        self._answers = list(answers)
        self._interface = PolledInterface([])

    def poll(self, now):
        if not self._answers.pop(0):
            raise ReaderUnreachable("scripted")
        return self._interface.poll(now)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(SupervisorError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(SupervisorError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(SupervisorError):
            RetryPolicy(degraded_after=3, down_after=2)

    def test_backoff_schedule_doubles(self):
        policy = RetryPolicy(base_backoff_s=0.05, backoff_multiplier=2.0)
        delays = [policy.backoff_before_attempt(a) for a in range(4)]
        assert delays == [0.0, 0.05, 0.1, 0.2]


class TestSupervisedReader:
    def test_retry_recovers_transient_failure(self):
        transport = FlakyTransport([_event(0.5)], failures=2)
        reader = SupervisedReader("reader-0", transport)
        events = reader.poll(1.0)
        assert len(events) == 1
        assert reader.health is ReaderHealth.HEALTHY
        assert reader.stats.retries == 2
        assert reader.stats.failed_polls == 0
        # Retries happen at now + backoff: simulated time advances.
        assert transport.polls == pytest.approx([1.0, 1.05, 1.15])

    def test_exhausted_attempts_return_empty_not_raise(self):
        reader = SupervisedReader("reader-0", DeadTransport())
        assert reader.poll(1.0) == []
        assert reader.stats.failed_polls == 1

    def test_health_walks_degraded_then_down_then_recovers(self):
        transport = FlakyTransport(
            [_event(0.5)], failures=9, error=ReaderUnreachable
        )
        policy = RetryPolicy(degraded_after=1, down_after=3)
        reader = SupervisedReader("reader-0", transport, policy)
        healths = []
        for step in range(4):
            reader.poll(1.0 + step)
            healths.append(reader.health)
        assert healths == [
            ReaderHealth.DEGRADED,
            ReaderHealth.DEGRADED,
            ReaderHealth.DOWN,
            ReaderHealth.HEALTHY,
        ]
        moves = [(t.old, t.new) for t in reader.transitions]
        assert moves == [
            (ReaderHealth.HEALTHY, ReaderHealth.DEGRADED),
            (ReaderHealth.DEGRADED, ReaderHealth.DOWN),
            (ReaderHealth.DOWN, ReaderHealth.HEALTHY),
        ]
        # Transition reasons carry the underlying error, observably.
        assert "ReaderUnreachable" in reader.transitions[0].reason

    def test_malformed_document_counts_as_failure(self):
        class GarbageTransport:
            def poll(self, now):
                return "<TagList><Tag>"

        reader = SupervisedReader(
            "reader-0",
            GarbageTransport(),
            RetryPolicy(max_attempts=1, degraded_after=1, down_after=1),
        )
        assert reader.poll(1.0) == []
        assert reader.stats.malformed_documents == 1
        assert reader.health is ReaderHealth.DOWN

    def test_clock_never_runs_backwards_through_retries(self):
        # A retry at now+backoff must not poll earlier than a previous
        # attempt — otherwise the drained buffer would raise.
        transport = FlakyTransport([], failures=2)
        reader = SupervisedReader(
            "reader-0", transport, RetryPolicy(base_backoff_s=0.5)
        )
        reader.poll(1.0)  # retries reach t=2.5
        events = reader.poll(1.1)  # would rewind without the clamp
        assert events == []
        assert transport.polls == sorted(transport.polls)


class TestReaderFailoverGroup:
    def _group(self, primary_transport, standby_events=()):
        primary = SupervisedReader("reader-0", primary_transport)
        standby = SupervisedReader(
            "reader-1",
            PolledInterface(
                [_event(t, reader="reader-1") for t in standby_events]
            ),
        )
        return ReaderFailoverGroup([primary, standby])

    def test_needs_unique_nonempty_members(self):
        with pytest.raises(SupervisorError):
            ReaderFailoverGroup([])
        reader = SupervisedReader("reader-0", DeadTransport())
        twin = SupervisedReader("reader-0", DeadTransport())
        with pytest.raises(SupervisorError, match="duplicate"):
            ReaderFailoverGroup([reader, twin])

    def test_union_of_member_events(self):
        group = self._group(
            PolledInterface([_event(0.4)]), standby_events=[0.6]
        )
        events = group.poll(1.0)
        assert [(e.time, e.reader_id) for e in events] == [
            (0.4, "reader-0"),
            (0.6, "reader-1"),
        ]

    def test_promotion_away_from_down_primary(self):
        group = self._group(DeadTransport(), standby_events=[0.5])
        assert group.active_reader_id == "reader-0"
        for step in range(3):  # down_after=3 consecutive failed polls
            group.poll(1.0 + step)
        assert group.active_reader_id == "reader-1"
        [promotion] = group.promotions
        assert promotion.from_reader == "reader-0"
        assert promotion.to_reader == "reader-1"
        assert group.degraded
        assert group.live_fraction == pytest.approx(0.5)

    def test_recovered_primary_stays_standby(self):
        transport = FlakyTransport([], failures=9, error=ReaderUnreachable)
        group = self._group(transport)
        for step in range(5):  # 3 polls x 3 attempts kill the primary...
            group.poll(1.0 + step)
        assert group.active_reader_id == "reader-1"
        # ...and its later recovery must not flap the active role back.
        assert group.health()["reader-0"] is ReaderHealth.HEALTHY
        assert len(group.promotions) == 1
        assert group.active_reader_id == "reader-1"

    def test_all_down_keeps_stale_active(self):
        primary = SupervisedReader("reader-0", DeadTransport())
        standby = SupervisedReader("reader-1", DeadTransport())
        group = ReaderFailoverGroup([primary, standby])
        for step in range(4):
            group.poll(1.0 + step)
        assert group.active_reader_id == "reader-0"
        assert group.promotions == []
        assert group.live_fraction == 0.0

    def test_transitions_merged_in_time_order(self):
        group = self._group(DeadTransport())
        for step in range(3):
            group.poll(1.0 + step)
        times = [t.time for t in group.transitions()]
        assert times == sorted(times)

    def test_history_interleaves_transitions_and_promotions(self):
        # One attempt per poll. The primary fails its first four polls;
        # the standby answers three, then fails from then on.
        policy = RetryPolicy(max_attempts=1)
        primary = SupervisedReader(
            "reader-0",
            FlakyTransport([], failures=4, error=ReaderUnreachable),
            policy,
        )
        standby = SupervisedReader(
            "reader-1", ScriptedTransport([True] * 3 + [False] * 3), policy
        )
        group = ReaderFailoverGroup([primary, standby])
        for step in range(6):
            group.poll(1.0 + step)

        def entry(e):
            if isinstance(e, Promotion):
                return ("promotion", e.from_reader, e.to_reader, e.time)
            return ("health", e.reader_id, e.new.value, e.time)

        assert [entry(e) for e in group.history] == [
            ("health", "reader-0", "degraded", 1.0),
            ("health", "reader-0", "down", 3.0),
            ("promotion", "reader-0", "reader-1", 3.0),
            ("health", "reader-1", "degraded", 4.0),
            ("health", "reader-0", "healthy", 5.0),
            ("health", "reader-1", "down", 6.0),
            ("promotion", "reader-1", "reader-0", 6.0),
        ]
        assert sorted(
            (e for e in group.history if not isinstance(e, Promotion)),
            key=lambda t: (t.time, t.reader_id),
        ) == group.transitions()

    def test_history_starts_with_members_earlier_transitions(self):
        primary = SupervisedReader("reader-0", DeadTransport())
        primary.poll(0.5)
        [earlier] = primary.transitions
        group = ReaderFailoverGroup(
            [primary, SupervisedReader("reader-1", PolledInterface([]))]
        )
        assert group.history == []
        group.poll(1.0)
        assert group.history[0] is earlier
        assert group.history == primary.transitions
