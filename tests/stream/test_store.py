"""File-backed persistence: JSONL segments, dump/load round trips."""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.stream import (StreamBroker, channel_of_segment, dump_broker,
                          load_broker, segment_name)


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
        assert channel_of_segment(
            __import__("pathlib").Path(name)) == "dproc.monitor"

    def test_slashes_made_path_safe(self):
        assert "/" not in segment_name("a/b")


class TestDumpLoad:
    def test_round_trip_preserves_entries(self, tmp_path):
        broker = small_broker()
        paths = dump_broker(broker, tmp_path)
        assert sorted(p.name for p in paths) == [
            "segment-dproc.control.jsonl",
            "segment-dproc.monitor.jsonl"]
        back = load_broker(tmp_path)
        assert back.serialize() == broker.serialize()

    def test_load_regenerates_seqs_after_trim(self, tmp_path):
        broker = small_broker()
        broker.stream("dproc.monitor").trim_to(1)
        broker.dump(tmp_path)
        back = StreamBroker.load(tmp_path)
        st = back.stream("dproc.monitor")
        assert st.first_seq == 1 and len(st) == 1
        assert st.entries()[0].kind == "deliver"

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_broker(tmp_path / "nope")


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
