"""Stream-fed dtop: cursor feeding and the row-union fix."""

from __future__ import annotations

import pytest

from repro.dproc import MetricId
from repro.stream import ChannelStream, StreamBroker, StreamError, StreamTop


def submit(broker, source, t, records):
    broker.stream("dproc.monitor").append(
        kind="submit", source=source, dest="", time=t,
        submitted_at=t, size=100.0, targets=("other",),
        records=tuple(records))


def deliver(broker, source, dest, t):
    broker.stream("dproc.monitor").append(
        kind="deliver", source=source, dest=dest, time=t,
        submitted_at=t - 0.01, size=100.0)


class TestRowUnion:
    def test_hosts_with_only_disk_or_net_metrics_keep_a_row(self):
        """Regression: the old snapshot dtop keyed rows on the
        load/freemem snapshots and silently dropped hosts that had
        reported only disk or network data."""
        broker = StreamBroker()
        submit(broker, "alan", 1.0,
               [(int(MetricId.LOADAVG), 0.5, 1.0)])
        submit(broker, "etna", 1.1,
               [(int(MetricId.FREEMEM), 2.0**28, 1.1)])
        submit(broker, "disko", 1.2,
               [(int(MetricId.DISKUSAGE), 3.5, 1.2)])
        submit(broker, "netty", 1.3,
               [(int(MetricId.NET_BANDWIDTH), 1e7, 1.3)])
        top = StreamTop(broker)
        top.feed()
        assert [r.host for r in top.rows()] \
            == ["alan", "disko", "etna", "netty"]
        table = top.render(now=2.0)
        for host in ("alan", "disko", "etna", "netty"):
            assert host in table

    def test_partial_metrics_render_as_nan_not_crash(self):
        broker = StreamBroker()
        submit(broker, "disko", 1.0,
               [(int(MetricId.DISKUSAGE), 3.5, 1.0)])
        top = StreamTop(broker)
        top.feed()
        row = top.rows()[0]
        assert row.value(MetricId.LOADAVG) is None
        assert row.value(MetricId.DISKUSAGE) == 3.5
        assert "nan" in top.render()


class TestFeeding:
    def test_feed_applies_submits_and_acks(self):
        broker = StreamBroker()
        submit(broker, "alan", 1.0,
               [(int(MetricId.LOADAVG), 0.5, 1.0)])
        deliver(broker, "alan", "maui", 1.01)
        top = StreamTop(broker)
        assert top.feed() == 1  # only the submit applies
        assert top.events_consumed == 2  # but both were consumed
        assert top.cursor == 2

    def test_second_feed_never_double_counts(self):
        broker = StreamBroker()
        submit(broker, "alan", 1.0,
               [(int(MetricId.LOADAVG), 0.5, 1.0)])
        top = StreamTop(broker)
        top.feed()
        assert top.feed() == 0
        submit(broker, "alan", 2.0,
               [(int(MetricId.LOADAVG), 0.7, 2.0)])
        assert top.feed() == 1
        row = top.rows()[0]
        assert row.events == 2
        assert row.value(MetricId.LOADAVG) == 0.7

    def test_latest_value_wins_and_age_tracks(self):
        broker = StreamBroker()
        submit(broker, "alan", 1.0,
               [(int(MetricId.FREEMEM), 100.0, 1.0)])
        submit(broker, "alan", 5.0,
               [(int(MetricId.FREEMEM), 200.0, 5.0)])
        top = StreamTop(broker)
        top.feed()
        row = top.rows()[0]
        assert row.value(MetricId.FREEMEM) == 200.0
        assert row.last_seen == 5.0

    def test_a_cursor_the_ring_has_passed_is_refused(self):
        broker = StreamBroker()
        broker.streams["dproc.monitor"] = ChannelStream(
            "dproc.monitor", max_len=2)
        top = StreamTop(broker)
        for t in (1.0, 2.0, 3.0):
            submit(broker, "alan", t,
                   [(int(MetricId.LOADAVG), t, t)])
        with pytest.raises(StreamError):
            top.feed()
        assert top.events_consumed == 0
