"""Broker semantics: monotone ids, the ring bound and its refusals."""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.runtime.protocol import EventStream
from repro.stream import (STREAM_CAPACITY, ChannelStream, StreamBroker,
                          StreamEntry, StreamError, reconcile,
                          replay_stats, verify_stats)


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
        assert st.max_len == STREAM_CAPACITY

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


def trimmed_broker() -> StreamBroker:
    """A monitor stream of 10 submits whose ring keeps the last 4."""
    broker = StreamBroker()
    broker.streams["dproc.monitor"] = st = ChannelStream(
        "dproc.monitor", max_len=4)
    fill(st, 10)
    return broker


def _ingest(broker: StreamBroker) -> None:
    plane = Scenario(nodes=2, seed=1).with_observability().build().obs
    plane.ingest_stream(broker)


def _attribute(broker: StreamBroker) -> None:
    from repro.obs import attribute_transitions
    attribute_transitions([], broker)


class TestRingRefusals:
    @pytest.mark.parametrize("read", [
        lambda b: reconcile(b, until=10.0),
        replay_stats,
        lambda b: verify_stats(b, []),
        _ingest,
        _attribute,
    ], ids=["reconcile", "replay_stats", "verify_stats",
            "ingest_stream", "attribute_transitions"])
    def test_whole_log_readers_refuse_a_trimmed_stream(self, read):
        with pytest.raises(StreamError, match="fell off"):
            read(trimmed_broker())

    def test_read_after_refuses_a_cursor_the_ring_has_passed(self):
        st = trimmed_broker().stream("dproc.monitor")
        with pytest.raises(StreamError):
            st.read_after(5)
        assert [e.seq for e in st.read_after(6)] == [7, 8, 9, 10]

    def test_what_the_ring_holds_is_still_served(self):
        broker = trimmed_broker()
        st = broker.stream("dproc.monitor")
        assert [e.seq for e in st.tail(10)] == [7, 8, 9, 10]
        assert broker.serialize().count("\n") == 4


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
