"""File-backed persistence: JSONL segments, dump/load round trips."""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.stream import (ChannelStream, StreamBroker, StreamError,
                          reconcile, segment_name)


def small_broker() -> StreamBroker:
    broker = StreamBroker()
    st = broker.stream("dproc.monitor")
    st.append(kind="submit", source="alan", dest="", time=1.0,
              submitted_at=1.0, size=100.0, targets=("maui",),
              local=True, records=((0, 1.5, 1.0),))
    st.append(kind="deliver", source="alan", dest="maui", time=1.1,
              submitted_at=1.0, size=100.0, records=((0, 1.5, 1.0),))
    broker.stream("dproc.control").append(
        kind="drop", source="maui", dest="alan", time=2.0,
        submitted_at=1.9, size=50.0, fault="partition",
        summary="control:set")
    return broker


class TestSegmentNames:
    def test_round_trip(self):
        name = segment_name("dproc.monitor")
        assert name == "segment-dproc.monitor.jsonl"

    def test_slashes_made_path_safe(self):
        assert "/" not in segment_name("a/b")


class TestDumpLoad:
    def test_round_trip_preserves_entries(self, tmp_path):
        broker = small_broker()
        paths = broker.dump(tmp_path)
        assert sorted(p.name for p in paths) == [
            "segment-dproc.control.jsonl",
            "segment-dproc.monitor.jsonl"]
        back = StreamBroker.load(tmp_path)
        assert back.serialize() == broker.serialize()

    def test_load_keeps_the_recorded_seqs(self, tmp_path):
        """A stream dumped after its ring dropped entries reloads with
        the same seqs and ``trimmed`` count, so a replay refuses it as
        it refuses the original."""
        broker = StreamBroker()
        broker.streams["c"] = st = ChannelStream("c", max_len=4)
        for i in range(10):
            st.append(kind="submit", source="alan", dest="",
                      time=float(i), submitted_at=float(i), size=1.0)
        broker.dump(tmp_path)
        back = StreamBroker.load(tmp_path)
        again = back.stream("c")
        assert (again.first_seq, again.last_seq, again.trimmed) \
            == (st.first_seq, st.last_seq, st.trimmed) == (7, 10, 6)
        assert back.serialize() == broker.serialize()
        for copy in (broker, back):
            with pytest.raises(StreamError):
                reconcile(copy, until=10.0)

    @pytest.mark.parametrize("doctor, match", [
        (lambda rows: [rows[1], rows[0]], "does not follow"),
        (lambda rows: [rows[0][:-1]], "not a stream row"),
        (lambda rows: ['{"seq": 1}'], "not a stream row"),
    ], ids=["seqs-out-of-order", "truncated-json", "missing-fields"])
    def test_a_malformed_segment_is_refused(self, tmp_path, doctor,
                                            match):
        small_broker().dump(tmp_path)
        path = tmp_path / segment_name("dproc.monitor")
        rows = doctor(path.read_text().splitlines())
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(StreamError, match=match):
            StreamBroker.load(tmp_path)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            StreamBroker.load(tmp_path / "nope")


class TestScenarioDump:
    def test_sim_run_dump_load_reconciles_offline(self, tmp_path):
        scenario = Scenario(nodes=4, seed=5).with_stream().run(5.0)
        live = scenario.stream
        scenario.stream.dump(tmp_path)
        offline = StreamBroker.load(tmp_path)
        assert offline.serialize() == live.serialize()
        # Replay-only reconciliation (no cluster): still clean.
        from repro.stream import reconcile
        report = reconcile(offline, until=5.0)
        assert report.ok
        assert report.procfs_checked == 0
