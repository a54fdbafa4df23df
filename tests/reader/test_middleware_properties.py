"""Property-based tests on middleware invariants."""

from hypothesis import given, settings, strategies as st

from tests.hypothesis_budget import examples

from repro.reader.middleware import DuplicateEliminator, SlidingWindowSmoother
from repro.reader.wire import parse_tag_list, render_tag_list
from repro.sim.events import TagReadEvent

fast = settings(max_examples=examples(40), deadline=None)

epcs = st.sampled_from(["A" * 24, "B" * 24, "C" * 24])
times = st.lists(
    st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40
)


def _events(time_list, epc_list):
    pairs = sorted(zip(time_list, epc_list))
    return [
        TagReadEvent(t, epc, "r0", "a0", rssi_dbm=-60.0) for t, epc in pairs
    ]


class TestDedupProperties:
    @given(times, st.lists(epcs, min_size=1, max_size=40))
    @fast
    def test_output_subset_of_input(self, time_list, epc_list):
        n = min(len(time_list), len(epc_list))
        events = _events(time_list[:n], epc_list[:n])
        out = DuplicateEliminator(window_s=1.0).filter(events)
        assert len(out) <= len(events)
        assert all(e in events for e in out)

    @given(times, st.lists(epcs, min_size=1, max_size=40))
    @fast
    def test_every_tag_survives(self, time_list, epc_list):
        """Dedup never erases a tag entirely — only repeats."""
        n = min(len(time_list), len(epc_list))
        events = _events(time_list[:n], epc_list[:n])
        out = DuplicateEliminator(window_s=5.0).filter(events)
        assert {e.epc for e in out} == {e.epc for e in events}

    @given(times, st.lists(epcs, min_size=1, max_size=40))
    @fast
    def test_surviving_gaps_respect_window(self, time_list, epc_list):
        n = min(len(time_list), len(epc_list))
        events = _events(time_list[:n], epc_list[:n])
        window = 2.0
        out = DuplicateEliminator(window_s=window).filter(events)
        by_key = {}
        for event in out:
            previous = by_key.get(event.key())
            if previous is not None:
                assert event.time - previous >= window - 1e-9
            by_key[event.key()] = event.time


class TestSmootherProperties:
    @given(times)
    @fast
    def test_intervals_cover_every_read(self, time_list):
        events = _events(time_list, ["A" * 24] * len(time_list))
        intervals = SlidingWindowSmoother(window_s=1.5).smooth(events)
        for event in events:
            assert any(
                iv.start <= event.time < iv.end for iv in intervals
            ), event.time

    @given(times)
    @fast
    def test_intervals_disjoint_per_tag(self, time_list):
        events = _events(time_list, ["A" * 24] * len(time_list))
        intervals = SlidingWindowSmoother(window_s=1.0).smooth(events)
        ordered = sorted(intervals, key=lambda iv: iv.start)
        for a, b in zip(ordered, ordered[1:]):
            assert a.end <= b.start + 1e-9

    @given(times)
    @fast
    def test_wider_window_fewer_intervals(self, time_list):
        events = _events(time_list, ["A" * 24] * len(time_list))
        narrow = SlidingWindowSmoother(window_s=0.5).smooth(events)
        wide = SlidingWindowSmoother(window_s=10.0).smooth(events)
        assert len(wide) <= len(narrow)


class TestWireProperties:
    @given(
        times,
        st.lists(epcs, min_size=1, max_size=40),
        st.lists(
            st.floats(min_value=-90.0, max_value=-20.0),
            min_size=1,
            max_size=40,
        ),
    )
    @fast
    def test_render_parse_round_trip(self, time_list, epc_list, rssi_list):
        n = min(len(time_list), len(epc_list), len(rssi_list))
        events = [
            TagReadEvent(
                round(t, 6), epc, "reader-0", "ant-0", round(rssi, 1)
            )
            for t, epc, rssi in sorted(
                zip(time_list[:n], epc_list[:n], rssi_list[:n])
            )
        ]
        parsed = parse_tag_list(render_tag_list(events))
        assert len(parsed) == len(events)
        for original, round_tripped in zip(events, parsed):
            assert round_tripped.epc == original.epc
            assert abs(round_tripped.time - original.time) < 1e-6
            assert abs(round_tripped.rssi_dbm - original.rssi_dbm) < 0.05
