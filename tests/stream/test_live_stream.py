"""The live backend's stream on disk: dumped JSONL segments."""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.dproc import DMonConfig
from repro.stream import StreamBroker, reconcile, segment_name


@pytest.fixture(scope="module")
def live_run(tmp_path_factory):
    directory = tmp_path_factory.mktemp("live-stream")
    sc = Scenario(nodes=3, seed=11, backend="live",
                  dmon=DMonConfig(poll_interval=0.2)) \
        .with_stream()
    sc.run(2.5)
    sc.stream.dump(directory)
    return sc, directory


class TestLivePersistence:
    def test_segments_written_and_closed(self, live_run):
        sc, directory = live_run
        seg = directory / segment_name("dproc.monitor")
        # Every row is on disk once dump returns: one per entry.
        rows = seg.read_text().splitlines()
        assert len(rows) == len(sc.stream.entries("dproc.monitor")) > 0

    def test_disk_matches_memory(self, live_run):
        sc, directory = live_run
        loaded = StreamBroker.load(directory)
        assert loaded.serialize() == sc.stream.serialize()

    def test_replay_reconciles_against_live_caches(self, live_run):
        sc, directory = live_run
        report = reconcile(StreamBroker.load(directory), sc.dprocs,
                           until=sc.stream.entries(
                               "dproc.monitor")[-1].time,
                           open_window=2.0)
        # Real sockets: nothing may go missing or duplicate, and the
        # remote caches must be exactly what the log delivered.
        assert not report.missing
        assert not report.duplicated
        assert not report.procfs_mismatches
        assert report.delivered > 0
