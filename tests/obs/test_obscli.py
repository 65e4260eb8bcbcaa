"""``python -m repro.harness obs``: dashboard, exports, watch."""

from __future__ import annotations

import json
import threading

import pytest

from repro.harness.obscli import main, render_dashboard
from repro.obs import parse_openmetrics

ARGS = ["--nodes", "6", "--seed", "3", "--duration", "8"]


class TestDashboard:
    @pytest.fixture(scope="class")
    def output(self):
        import io
        import contextlib
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(ARGS) == 0
        return buf.getvalue()

    def test_health_header_and_rules(self, output):
        assert "health: healthy" in output
        assert "delivery-latency-p99" in output
        assert "drop-burn" in output

    def test_series_panels_with_sparklines(self, output):
        assert "dmon.polls" in output
        assert "stream.submits" in output
        from repro.harness.asciiplot import SPARK_GLYPHS
        assert any(g in output for g in SPARK_GLYPHS)

    def test_grep_filters_panels(self, capsys):
        assert main(ARGS + ["--grep", "dmon.polls"]) == 0
        out = capsys.readouterr().out
        assert "dmon.polls" in out
        assert "kecho." not in out

    def test_interval_too_short_for_a_rule_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--nodes", "3", "--duration", "1", "--interval", "0.01"])
        assert exit_info.value.code == 2
        assert "longer than the 2.39 s a series holds" \
            in capsys.readouterr().err

    def test_no_match_grep_says_so(self, capsys):
        assert main(ARGS + ["--grep", "zzz-nothing"]) == 0
        assert "(no series matched)" in capsys.readouterr().out


class TestFaultsDashboard:
    def test_chaos_run_shows_attributed_windows(self, capsys):
        assert main(["--nodes", "10", "--seed", "7", "--duration",
                     "30", "--faults"]) == 0
        out = capsys.readouterr().out
        assert "chaos run: 10 nodes" in out
        assert "transitions (" in out
        assert "degraded windows:" in out
        # The injected loss must be named by at least one window.
        assert "injected loss" in out


class TestExports:
    def test_json_export_is_canonical_and_deterministic(self, capsys):
        assert main(ARGS + ["--export", "json"]) == 0
        first = capsys.readouterr().out
        doc = json.loads(first)
        assert doc["schema"] == "repro.obs/2"
        assert doc["samples_taken"] == 9
        assert main(ARGS + ["--export", "json"]) == 0
        assert capsys.readouterr().out == first

    def test_openmetrics_export_parses(self, capsys):
        assert main(ARGS + ["--export", "openmetrics"]) == 0
        families = parse_openmetrics(capsys.readouterr().out)
        assert "repro_healthy" in families
        assert "repro_dmon_polls" in families


class TestWatch:
    def test_watch_validates_a_live_server(self, capsys):
        import asyncio

        from repro.obs import ObservabilityPlane
        from repro.live.scrape import ScrapeServer
        from repro.telemetry import TelemetryRegistry

        class FakeNode:
            def __init__(self, name):
                self.name = name
                self.telemetry = TelemetryRegistry(scope=name)
                self.telemetry.counter("dmon.polls").inc(2.0)

        plane = ObservabilityPlane(sample_interval=1.0)
        plane.bind(["n0"])
        server = ScrapeServer([FakeNode("n0")], plane)
        loop = asyncio.new_event_loop()
        ready = threading.Event()
        done: asyncio.Event | None = None

        async def serve():
            nonlocal done
            done = asyncio.Event()
            await server.start()
            ready.set()
            await done.wait()
            await server.stop()

        thread = threading.Thread(
            target=lambda: loop.run_until_complete(serve()),
            daemon=True)
        thread.start()
        assert ready.wait(5.0)
        try:
            rc = main(["--watch",
                       f"{server.url}",
                       "--count", "2", "--every", "0.05"])
        finally:
            loop.call_soon_threadsafe(done.set)
            thread.join(5.0)
        assert rc == 0
        out = capsys.readouterr().out
        assert "poll 1/2" in out and "poll 2/2" in out
        assert "health healthy" in out

    def test_watch_unreachable_endpoint_fails(self, capsys):
        rc = main(["--watch", "http://127.0.0.1:9/metrics",
                   "--count", "1"])
        assert rc == 1
        assert "FETCH FAILED" in capsys.readouterr().err


class TestRenderDashboardUnit:
    def test_plane_without_engine_renders(self):
        from repro.obs import ObservabilityPlane
        plane = ObservabilityPlane(sample_interval=1.0)
        out = render_dashboard(plane)
        assert "health: healthy" in out
        assert "(no series matched)" in out
