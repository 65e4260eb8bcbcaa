"""Broker semantics: monotone ids, consumer groups, ring bound."""

from __future__ import annotations

import pytest

from repro.runtime.protocol import EventStream
from repro.stream import ChannelStream, StreamBroker, StreamEntry


def fill(stream: ChannelStream, n: int, t0: float = 0.0) -> None:
    for i in range(n):
        stream.append(kind="submit", source=f"h{i % 3}", dest="",
                      time=t0 + i, submitted_at=t0 + i, size=100.0)


class TestChannelStream:
    def test_monotone_one_based_seqs(self):
        st = ChannelStream("c")
        fill(st, 5)
        assert [e.seq for e in st.entries()] == [1, 2, 3, 4, 5]
        assert st.first_seq == 1 and st.last_seq == 5

    def test_get_is_offset_addressed(self):
        st = ChannelStream("c")
        fill(st, 10)
        st.trim_to(4)
        assert st.get(4) is None
        assert st.get(5).seq == 5
        assert st.get(11) is None
        assert st.first_seq == 5 and st.trimmed == 4

    def test_read_after_and_tail(self):
        st = ChannelStream("c")
        fill(st, 6)
        assert [e.seq for e in st.read_after(3)] == [4, 5, 6]
        assert [e.seq for e in st.read_after(3, count=2)] == [4, 5]
        assert [e.seq for e in st.tail(2)] == [5, 6]
        assert st.tail(0) == []

    def test_max_len_is_a_hard_ring_bound(self):
        st = ChannelStream("c", max_len=4)
        fill(st, 10)
        assert len(st) == 4
        assert st.first_seq == 7 and st.last_seq == 10
        assert st.trimmed == 6

    def test_seqs_keep_rising_past_trims(self):
        st = ChannelStream("c", max_len=2)
        fill(st, 5)
        st.append(kind="submit", source="x", dest="", time=9.0,
                  submitted_at=9.0, size=1.0)
        assert st.last_seq == 6


class TestConsumerGroup:
    def test_read_parks_pending_and_advances_cursor(self):
        st = ChannelStream("c")
        fill(st, 4)
        grp = st.group("g")
        got = grp.read("alice", count=3, now=1.0)
        assert [e.seq for e in got] == [1, 2, 3]
        assert grp.cursor == 3
        assert sorted(grp.pending_for("alice")) == [1, 2, 3]
        # A second read never re-hands-out unacked entries.
        again = grp.read("alice")
        assert [e.seq for e in again] == [4]

    def test_ack_clears_pending(self):
        st = ChannelStream("c")
        fill(st, 3)
        grp = st.group("g")
        grp.read("alice")
        assert grp.ack(1, 2) == 2
        assert grp.ack(1) == 0  # double-ack is a no-op
        assert sorted(grp.pending) == [3]

    def test_acked_floor_tracks_lowest_unacked(self):
        st = ChannelStream("c")
        fill(st, 5)
        grp = st.group("g")
        grp.read("alice")
        assert grp.acked_floor == 0
        grp.ack(1, 2, 4)  # 3 still pending
        assert grp.acked_floor == 2
        grp.ack(3)
        assert grp.acked_floor == 4
        grp.ack(5)
        assert grp.acked_floor == 5 == grp.cursor

    def test_claim_reassigns_stuck_entries(self):
        st = ChannelStream("c")
        fill(st, 3)
        grp = st.group("g")
        grp.read("alice", now=1.0)
        claimed = grp.claim("bob", [2, 3, 99], now=7.0)
        assert [e.seq for e in claimed] == [2, 3]
        assert set(grp.pending_for("bob")) == {2, 3}
        assert set(grp.pending_for("alice")) == {1}
        info = grp.pending[2]
        assert info.delivery_count == 2
        assert info.last_delivered == 7.0

    def test_groups_are_named_and_independent(self):
        st = ChannelStream("c")
        fill(st, 2)
        a = st.group("a")
        assert st.group("a") is a
        b = st.group("b")
        a.read("x")
        assert b.cursor == 0 and not b.pending


class TestStreamBroker:
    def test_satisfies_the_runtime_protocol(self):
        assert isinstance(StreamBroker(), EventStream)

    def test_streams_created_on_demand(self):
        broker = StreamBroker()
        st = broker.stream("dproc.monitor")
        assert broker.stream("dproc.monitor") is st
        assert broker.channels() == ["dproc.monitor"]

    def test_serialize_is_canonical(self):
        a, b = StreamBroker(), StreamBroker()
        for broker in (a, b):
            fill(broker.stream("z"), 3)
            fill(broker.stream("a"), 2)
        assert a.serialize() == b.serialize()
        assert a.serialize().index('"channel":"a"') \
            < a.serialize().index('"channel":"z"')


class TestEntryRoundTrip:
    def test_record_round_trip_preserves_everything(self):
        entry = StreamEntry(
            seq=7, kind="drop", channel="c", source="alan",
            dest="maui", time=3.5, submitted_at=3.25, size=512.0,
            records=((0, 1.5, 3.0),), summary="", targets=("maui",),
            local=True, fault="partition")
        back = StreamEntry.from_record(entry.to_record())
        assert back == entry

    def test_defaults_are_omitted_from_records(self):
        entry = StreamEntry(seq=1, kind="submit", channel="c",
                            source="alan", dest="", time=1.0,
                            submitted_at=1.0, size=10.0)
        rec = entry.to_record()
        assert "fault" not in rec and "local" not in rec
        assert StreamEntry.from_record(rec) == entry

    def test_natural_key_and_latency(self):
        entry = StreamEntry(seq=1, kind="deliver", channel="c",
                            source="alan", dest="maui", time=2.0,
                            submitted_at=1.5, size=10.0)
        assert entry.key == ("c", "alan", 1.5)
        assert entry.latency == pytest.approx(0.5)
