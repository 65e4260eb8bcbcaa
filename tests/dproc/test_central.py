"""Unit tests for the centralized-collector baseline."""

from __future__ import annotations

import pytest

from repro.dproc import CentralCollector, MetricId
from repro.dproc.central import DAEMON_CROSSING_COST
from repro.errors import DprocError

METRICS = frozenset({MetricId.LOADAVG, MetricId.FREEMEM})


@pytest.fixture
def central(env, cluster3):
    collector = CentralCollector(
        cluster3, collector="alan", metrics=METRICS).start()
    return collector


class TestLifecycle:
    def test_unknown_collector_rejected(self, cluster3):
        with pytest.raises(DprocError):
            CentralCollector(cluster3, collector="ghost")

    def test_double_start_rejected(self, central):
        with pytest.raises(DprocError):
            central.start()

    def test_stop_halts_pushes(self, env, central):
        env.run(until=5.0)
        central.stop()
        pushes = central.agents["maui"].pushes
        env.run(until=15.0)
        assert central.agents["maui"].pushes <= pushes + 1


class TestDataFlow:
    def test_collector_learns_all_nodes(self, env, central):
        env.run(until=4.0)
        assert set(central.digest) == {"alan", "maui", "etna"}
        assert central.digest["maui"][MetricId.FREEMEM] > 0

    def test_digest_broadcast_reaches_everyone(self, env, central,
                                               cluster3):
        env.run(until=5.0)
        for host in cluster3.names:
            if host == "alan":
                continue
            value = central.view(host, "etna", MetricId.FREEMEM)
            assert value is not None and value > 0

    def test_view_unknown_is_none(self, central):
        assert central.view("maui", "ghost", MetricId.FREEMEM) is None

    def test_metric_subset_respected(self, env, central):
        env.run(until=4.0)
        assert MetricId.DISKUSAGE not in central.digest["maui"]


class TestCostAccounting:
    def test_collector_is_hottest(self, env, central):
        env.run(until=10.0)
        host, cpu = central.hottest_node()
        assert host == "alan"
        assert cpu > 0

    def test_leaf_costs_are_small_and_uniform(self, env, central):
        env.run(until=10.0)
        costs = central.monitoring_cpu_seconds()
        assert costs["maui"] == pytest.approx(costs["etna"], rel=0.2)
        assert costs["alan"] > 2 * costs["maui"]

    def test_daemon_crossing_cost_charged(self, env, central):
        env.run(until=10.0)
        host, cpu = central.hottest_node()
        leaves = [a for name, a in central.agents.items() if name != host]
        # One crossing per push handled (each leaf may have one still
        # on the wire) and one per digest copy sent.
        crossings = (sum(a.pushes for a in leaves) - len(leaves)
                     + central.digests_sent * len(leaves))
        assert crossings > 0
        assert cpu > crossings * DAEMON_CROSSING_COST

    def test_monitoring_charges_real_cpu(self, env, central, cluster3):
        env.run(until=10.0)
        alan = cluster3["alan"]
        alan.cpu.settle()
        assert alan.cpu.busy_cpu_seconds \
            >= central.monitoring_cpu_seconds()["alan"] * 0.9
