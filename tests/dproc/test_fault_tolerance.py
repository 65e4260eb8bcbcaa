"""Fault-tolerance tests: peer-to-peer dproc vs. the central collector.

The paper claims dproc's peer-to-peer communication improves fault
tolerance by "avoiding central master collection points".  These tests
make that concrete: kill one node in each architecture and check who
keeps learning about whom.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.dproc import CentralCollector, MetricId


def freshest(dmon, host, metric=MetricId.FREEMEM):
    entry = dmon.remote_value(host, metric)
    return None if entry is None else entry.timestamp


class TestP2PSurvivesNodeLoss:
    def test_monitoring_continues_after_any_node_dies(self, sc3):
        dprocs = sc3.dprocs
        sc3.run_until(5.0)
        # Kill maui — including the case where it created the channels
        # (deployment order makes alan the creator; test both).
        dprocs["maui"].stop()
        t_kill = sc3.env.now
        sc3.run_until(20.0)
        alan = dprocs["alan"].dmon
        etna = dprocs["etna"].dmon
        # The survivors still exchange fresh data with each other...
        assert freshest(alan, "etna") > t_kill
        assert freshest(etna, "alan") > t_kill
        # ...while the dead node's entries go stale but remain readable.
        assert freshest(alan, "maui") <= t_kill

    def test_channel_creator_death_is_survivable(self, sc3):
        """The registry creator is control-plane only: its death must
        not take the channels down."""
        dprocs = sc3.dprocs
        sc3.run_until(5.0)
        creator = dprocs["alan"]  # first deployed: created the channels
        creator.stop()
        t_kill = sc3.env.now
        sc3.run_until(20.0)
        maui = dprocs["maui"].dmon
        assert freshest(maui, "etna") > t_kill

    def test_dead_node_can_rejoin(self, sc3):
        from repro.dproc import DMon, register_default_modules
        dprocs = sc3.dprocs
        sc3.run_until(5.0)
        dprocs["maui"].stop()
        sc3.run_until(10.0)
        # Fresh d-mon on the same node, same bus (reboot).
        reborn = DMon(sc3.nodes["maui"], dprocs["maui"].bus)
        register_default_modules(reborn)
        reborn.start()
        sc3.run_until(20.0)
        assert freshest(dprocs["alan"].dmon, "maui") > 10.0
        assert reborn.remote_value("etna",
                                   MetricId.FREEMEM) is not None


class TestCentralCollectorIsAFaultDomain:
    def test_collector_death_stops_all_dissemination(self):
        sc = Scenario(nodes=3, seed=42, monitor_hosts=0).build()
        central = CentralCollector(
            sc.nodes, collector="alan",
            metrics=frozenset({MetricId.FREEMEM})).start()
        sc.run_until(6.0)
        # Everyone knows everyone while the collector lives.
        assert central.view("maui", "etna", MetricId.FREEMEM) \
            is not None
        before = dict(central.node_views["maui"].get("etna", {}))
        central.stop()  # the collector (and the whole system) dies
        sc.run_until(30.0)
        after = central.node_views["maui"].get("etna", {})
        # maui learned nothing new about etna after the collector died.
        assert after == before

    def test_p2p_has_no_single_fault_domain(self):
        """Counterpart: kill each dproc node in turn; the other two
        always keep exchanging."""
        for victim in ("alan", "maui", "etna"):
            sc = Scenario(nodes=3, seed=4).run_until(5.0)
            dprocs = sc.dprocs
            dprocs[victim].stop()
            t_kill = sc.env.now
            sc.run_until(20.0)
            survivors = [n for n in sc.nodes.names if n != victim]
            a, b = survivors
            assert freshest(dprocs[a].dmon, b) > t_kill, \
                f"{a} lost {b} after {victim} died"
            assert freshest(dprocs[b].dmon, a) > t_kill, \
                f"{b} lost {a} after {victim} died"
