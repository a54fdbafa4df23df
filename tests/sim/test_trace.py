"""Tests for read traces and event types."""

import pickle

import pytest

from repro.sim.events import SlotOutcome, TagReadEvent
from repro.sim.trace import ReadTrace


def _event(t, epc="E" * 24, reader="r0", antenna="a0", rssi=-60.0):
    return TagReadEvent(t, epc, reader, antenna, rssi)


class TestSlotOutcome:
    def test_empty(self):
        assert SlotOutcome(0.0, 0, ()).kind == "empty"

    def test_success(self):
        assert SlotOutcome(0.0, 0, ("x",), epc="x").kind == "success"

    def test_collision(self):
        assert SlotOutcome(0.0, 0, ("a", "b", "c")).kind == "collision"

    def test_garbled_single_counts_as_collision(self):
        # One responder but no decoded EPC: looks like a collision.
        assert SlotOutcome(0.0, 0, ("x",), epc=None).kind == "collision"


class TestTagReadEvent:
    def test_key(self):
        event = _event(1.0)
        assert event.key() == ("E" * 24, "r0", "a0")

    def test_unpickled_epc_is_interned(self):
        # Build the EPC at run time so it is not a shared literal.
        epc = "".join(["E"] * 24)
        event = TagReadEvent(1.0, epc, "r0", "a0", -60.0)
        restored = pickle.loads(pickle.dumps(event))
        assert restored == event
        assert restored.epc is pickle.loads(pickle.dumps(event)).epc


class TestReadTrace:
    def test_record_and_len(self):
        trace = ReadTrace()
        trace.record(_event(1.0))
        trace.record(_event(2.0))
        assert len(trace) == 2
        assert not trace.is_empty

    def test_rejects_time_reversal(self):
        trace = ReadTrace()
        trace.record(_event(5.0))
        with pytest.raises(ValueError):
            trace.record(_event(1.0))

    def test_epcs_seen(self):
        trace = ReadTrace()
        trace.record(_event(1.0, epc="A" * 24))
        trace.record(_event(2.0, epc="B" * 24))
        trace.record(_event(3.0, epc="A" * 24))
        assert trace.epcs_seen() == frozenset({"A" * 24, "B" * 24})

    def test_was_read(self):
        trace = ReadTrace()
        trace.record(_event(1.0, epc="A" * 24))
        assert trace.was_read("A" * 24)
        assert not trace.was_read("B" * 24)

    def test_read_counts(self):
        trace = ReadTrace()
        for t in (1.0, 2.0, 3.0):
            trace.record(_event(t, epc="A" * 24))
        assert trace.read_counts() == {"A" * 24: 3}

    def test_first_read_time(self):
        trace = ReadTrace()
        trace.record(_event(1.5, epc="A" * 24))
        trace.record(_event(2.5, epc="A" * 24))
        assert trace.first_read_time("A" * 24) == 1.5
        assert trace.first_read_time("B" * 24) is None

    def test_iteration(self):
        trace = ReadTrace()
        trace.record(_event(1.0))
        assert [e.time for e in trace] == [1.0]


class TestEpcIndex:
    def test_index_is_built_lazily_and_reused(self):
        trace = ReadTrace()
        trace.record(_event(1.0, epc="A" * 24))
        assert trace._epc_index is None
        assert trace.was_read("A" * 24)
        first = trace._epc_index
        assert first is not None
        trace.first_read_time("A" * 24)
        assert trace._epc_index is first

    def test_record_invalidates_the_index(self):
        trace = ReadTrace()
        trace.record(_event(1.0, epc="A" * 24))
        assert trace.was_read("A" * 24)
        trace.record(_event(2.0, epc="B" * 24))
        assert trace._epc_index is None
        assert trace.was_read("B" * 24)
        assert trace.read_counts() == {"A" * 24: 1, "B" * 24: 1}

    def test_index_never_affects_equality(self):
        queried, fresh = ReadTrace(), ReadTrace()
        queried.record(_event(1.0))
        fresh.record(_event(1.0))
        queried.was_read("nope")
        assert queried == fresh


class TestTraceEdges:
    def test_new_trace_is_empty(self):
        trace = ReadTrace()
        assert trace.is_empty
        assert len(trace) == 0
        assert trace.epcs_seen() == frozenset()
        assert trace.read_counts() == {}

    def test_equal_times_accepted(self):
        trace = ReadTrace()
        trace.record(_event(1.0, antenna="a0"))
        trace.record(_event(1.0, antenna="a1"))
        assert [e.antenna_id for e in trace] == ["a0", "a1"]

    def test_rounding_sized_reversal_tolerated(self):
        trace = ReadTrace()
        trace.record(_event(1.0))
        trace.record(_event(1.0 - 1e-13))
        assert len(trace) == 2

    def test_rejected_event_leaves_trace_unchanged(self):
        trace = ReadTrace()
        trace.record(_event(5.0))
        with pytest.raises(ValueError):
            trace.record(_event(4.0))
        assert [e.time for e in trace] == [5.0]

    def test_counts_sum_to_length(self):
        trace = ReadTrace()
        for i, epc in enumerate(["A" * 24, "B" * 24, "A" * 24, "C" * 24]):
            trace.record(_event(float(i), epc=epc))
        assert sum(trace.read_counts().values()) == len(trace)
        assert set(trace.read_counts()) == trace.epcs_seen()

    def test_first_read_time_survives_later_reads(self):
        trace = ReadTrace()
        trace.record(_event(1.0, epc="A" * 24))
        assert trace.first_read_time("A" * 24) == 1.0
        trace.record(_event(2.0, epc="A" * 24))
        assert trace.first_read_time("A" * 24) == 1.0

    def test_epcs_seen_is_a_snapshot(self):
        trace = ReadTrace()
        trace.record(_event(1.0, epc="A" * 24))
        seen = trace.epcs_seen()
        trace.record(_event(2.0, epc="B" * 24))
        assert seen == frozenset({"A" * 24})
        assert trace.epcs_seen() == frozenset({"A" * 24, "B" * 24})

    def test_traces_with_different_events_differ(self):
        a, b = ReadTrace(), ReadTrace()
        a.record(_event(1.0))
        b.record(_event(1.0, rssi=-61.0))
        assert a != b
