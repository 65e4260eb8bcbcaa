"""Stats-by-replay: recomputed summaries must match live telemetry."""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.stream import replay_stats, verify_stats


@pytest.fixture(scope="module")
def ran():
    return Scenario(nodes=6, seed=13).with_stream().run(8.0)


class TestReplayStats:
    def test_channel_summary_shape(self, ran):
        stats = replay_stats(ran.stream)
        mon = stats["channels"]["dproc.monitor"]
        assert mon["submits"] > 0
        assert mon["deliveries"] >= mon["submits"]  # fan-out
        assert mon["latency"]["count"] == mon["deliveries"]
        assert mon["latency"]["max"] >= mon["latency"]["mean"] >= 0
        assert stats["total_entries"] == ran.stream.total_entries()

    def test_per_source_covers_every_node(self, ran):
        stats = replay_stats(ran.stream)
        assert set(stats["per_source"]) == set(ran.nodes.names)


class TestVerifyStats:
    def test_clean_run_verifies_exactly(self, ran):
        assert verify_stats(ran.stream, ran.runtime.nodes) == []

    def test_faulted_run_verifies_exactly(self):
        def faulty(sc):
            names = sc.nodes.names
            sc.faults.schedule_loss(1.0, 0.4, until=4.0)
            sc.faults.schedule_partition(2.0, [names[:2], names[2:]],
                                         heal_at=5.0)

        scenario = Scenario(nodes=6, seed=21) \
            .with_faults(faulty).with_stream().run(8.0)
        assert verify_stats(scenario.stream,
                            scenario.runtime.nodes) == []

    def test_verifying_builds_no_instrument(self):
        """A verify pass is a read: a watcher-less host's unwritten
        delivery histogram reads as its zero and stays unbuilt."""
        scenario = Scenario(nodes=6, seed=13, watchers=2) \
            .with_stream().run(8.0)
        nodes = scenario.runtime.nodes

        def built() -> dict:
            return {node.name: set(node.telemetry._instruments)
                    for node in nodes}

        before = built()
        assert any("kecho.dproc.monitor.delivery_seconds" not in names
                   for names in before.values())
        assert verify_stats(scenario.stream, nodes) == []
        assert built() == before

    def test_tampered_counter_is_detected(self):
        scenario = Scenario(nodes=3, seed=2).with_stream().run(4.0)
        node = next(iter(scenario.runtime.nodes))
        node.telemetry.counter("kecho.dproc.monitor.submits").inc(1)
        errors = verify_stats(scenario.stream, scenario.runtime.nodes)
        assert any("submits" in e and node.name in e for e in errors)
