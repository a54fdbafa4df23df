"""Tests for the AR400-style XML wire format."""

import pytest

from hypothesis import given, settings, strategies as st

from tests.hypothesis_budget import examples

from repro.reader.wire import (
    PolledInterface,
    PollOrderError,
    WireFormatError,
    parse_tag_list,
    render_tag_list,
)
from repro.sim.events import TagReadEvent


def _event(t=1.0, epc="3" + "0" * 23, reader="reader-0", antenna="ant-0"):
    return TagReadEvent(t, epc, reader, antenna, rssi_dbm=-61.5)


class TestRoundTrip:
    def test_empty_list(self):
        assert parse_tag_list(render_tag_list([])) == []

    def test_single_event(self):
        [parsed] = parse_tag_list(render_tag_list([_event()]))
        assert parsed.epc == "3" + "0" * 23
        assert parsed.reader_id == "reader-0"
        assert parsed.antenna_id == "ant-0"
        assert parsed.time == pytest.approx(1.0)
        assert parsed.rssi_dbm == pytest.approx(-61.5)

    def test_many_events_preserve_order(self):
        events = [_event(t=float(i), antenna=f"ant-{i}") for i in range(5)]
        parsed = parse_tag_list(render_tag_list(events))
        assert [e.antenna_id for e in parsed] == [f"ant-{i}" for i in range(5)]

    def test_xml_structure(self):
        doc = render_tag_list([_event()])
        assert doc.startswith("<TagList>")
        assert "<EPC>" in doc
        assert "<RSSI>" in doc


class TestParseErrors:
    def test_malformed_xml(self):
        with pytest.raises(WireFormatError, match="malformed"):
            parse_tag_list("<TagList><Tag>")

    def test_wrong_root(self):
        with pytest.raises(WireFormatError, match="root"):
            parse_tag_list("<Wrong/>")

    def test_missing_field(self):
        with pytest.raises(WireFormatError, match="Timestamp"):
            parse_tag_list(
                "<TagList><Tag><EPC>x</EPC><ReaderID>r</ReaderID>"
                "<AntennaID>a</AntennaID><RSSI>-60</RSSI></Tag></TagList>"
            )

    def test_invalid_numeric(self):
        with pytest.raises(WireFormatError, match="numerics"):
            parse_tag_list(
                "<TagList><Tag><EPC>x</EPC><ReaderID>r</ReaderID>"
                "<AntennaID>a</AntennaID><Timestamp>soon</Timestamp>"
                "<RSSI>-60</RSSI></Tag></TagList>"
            )


class TestPolledInterface:
    def test_poll_drains_up_to_now(self):
        events = [_event(t=float(i)) for i in range(5)]
        interface = PolledInterface(events)
        first = parse_tag_list(interface.poll(now=2.0))
        assert [e.time for e in first] == [0.0, 1.0, 2.0]
        assert not interface.drained

    def test_second_poll_gets_remainder(self):
        events = [_event(t=float(i)) for i in range(4)]
        interface = PolledInterface(events)
        interface.poll(now=1.0)
        rest = parse_tag_list(interface.poll(now=10.0))
        assert [e.time for e in rest] == [2.0, 3.0]
        assert interface.drained

    def test_nothing_lost_regardless_of_poll_rate(self):
        """The paper: results were 'independent of the application level
        polling speed' because the buffer loses nothing."""
        events = [_event(t=float(i) / 10) for i in range(30)]
        fast = PolledInterface(list(events))
        slow = PolledInterface(list(events))
        fast_total = []
        for step in range(30):
            fast_total += parse_tag_list(fast.poll(now=step / 10))
        slow_total = parse_tag_list(slow.poll(now=100.0))
        assert len(fast_total) == len(slow_total) == 30

    def test_poll_empty_buffer(self):
        interface = PolledInterface([])
        assert parse_tag_list(interface.poll(1.0)) == []
        assert interface.drained

    def test_poll_going_backwards_raises_not_empty(self):
        # A rewound poll must fail loudly: an empty batch would read as
        # "nothing happened" when events were in fact already drained.
        interface = PolledInterface([_event(t=1.0)])
        interface.poll(now=2.0)
        with pytest.raises(PollOrderError, match="backwards"):
            interface.poll(now=1.0)

    def test_poll_at_same_time_is_allowed(self):
        interface = PolledInterface([_event(t=1.0)])
        interface.poll(now=2.0)
        assert parse_tag_list(interface.poll(now=2.0)) == []

    def test_reset_rewinds_buffer_and_clock(self):
        interface = PolledInterface([_event(t=1.0)])
        interface.poll(now=5.0)
        assert interface.drained
        interface.reset()
        assert not interface.drained
        # The clock is released too: early polls are legal again.
        batch = parse_tag_list(interface.poll(now=1.0))
        assert [e.time for e in batch] == [1.0]


# Field values that stress XML escaping and whitespace handling. EPCs
# are hex in practice, but the wire layer must not corrupt whatever
# middleware hands it.
_exotic_text = st.text(
    alphabet=st.sampled_from(
        list("ABCDEF0123456789") + ["&", "<", ">", '"', "'", ";", "#", "x"]
    ),
    min_size=1,
    max_size=32,
)


class TestRoundTripProperties:
    @given(
        epcs=st.lists(_exotic_text, min_size=0, max_size=8),
        times=st.lists(
            st.floats(min_value=0.0, max_value=1e6),
            min_size=8,
            max_size=8,
        ),
        rssi=st.floats(min_value=-90.0, max_value=-10.0),
    )
    @settings(max_examples=examples(60), deadline=None)
    def test_exotic_fields_survive_round_trip(self, epcs, times, rssi):
        events = [
            TagReadEvent(
                round(t, 6), epc, "reader-&<0>", "ant-'0'", rssi_dbm=rssi
            )
            for epc, t in zip(epcs, times)
        ]
        parsed = parse_tag_list(render_tag_list(events))
        assert [e.epc for e in parsed] == [e.epc for e in events]
        assert [e.reader_id for e in parsed] == [e.reader_id for e in events]
        assert [e.antenna_id for e in parsed] == [
            e.antenna_id for e in events
        ]
        for got, want in zip(parsed, events):
            assert got.time == pytest.approx(want.time, abs=1e-6)
            assert got.rssi_dbm == pytest.approx(want.rssi_dbm, abs=0.05)

    @pytest.mark.parametrize(
        "missing", ["EPC", "ReaderID", "AntennaID", "Timestamp", "RSSI"]
    )
    def test_each_missing_field_is_its_own_error(self, missing):
        doc = render_tag_list([_event()])
        open_tag, close_tag = f"<{missing}>", f"</{missing}>"
        start = doc.find(open_tag)
        end = doc.find(close_tag) + len(close_tag)
        broken = doc[:start] + doc[end:]
        with pytest.raises(WireFormatError, match=missing):
            parse_tag_list(broken)

    @pytest.mark.parametrize("numeric", ["Timestamp", "RSSI"])
    def test_each_invalid_numeric_is_rejected(self, numeric):
        doc = render_tag_list([_event()])
        open_tag = f"<{numeric}>"
        start = doc.find(open_tag) + len(open_tag)
        end = doc.find(f"</{numeric}>")
        broken = doc[:start] + "not-a-number" + doc[end:]
        with pytest.raises(WireFormatError, match="numerics"):
            parse_tag_list(broken)
