"""Integration tests for the SmartPointer server/client pipeline."""

from __future__ import annotations

import math

import pytest

from repro.api import Scenario
from repro.dproc import DMonConfig
from repro.errors import SimulationError
from repro.sim import NodeConfig, build_cluster
from repro.sim.transport import Connection
from repro.smartpointer import (ClientCapabilities, DynamicAdaptation,
                                NoAdaptation, SmartPointerClient,
                                SmartPointerServer, StaticAdaptation,
                                StreamProfile, Transform)
from repro.units import KB
from repro.workloads import Linpack


@pytest.fixture
def profile():
    return StreamProfile(base_size=KB(200), base_client_cost=2.4,
                         server_preprocess_cost=2.0)


def make_pair(env, server_cpus=4):
    cluster = build_cluster(
        env, 2, seed=7,
        node_configs=[NodeConfig(n_cpus=server_cpus),
                      NodeConfig(n_cpus=1)])
    return cluster, cluster["alan"], cluster["maui"]


class TestPipeline:
    def test_events_flow_at_configured_rate(self, env, profile):
        _, server_node, client_node = make_pair(env)
        client = SmartPointerClient(client_node).start()
        server = SmartPointerServer(server_node)
        server.add_client("maui", profile, rate=5.0,
                          policy=NoAdaptation())
        env.run(until=20.0)
        assert client.processed.total == pytest.approx(100, abs=3)
        assert client.event_rate(window=10.0) == pytest.approx(5.0,
                                                               rel=0.1)

    def test_latency_includes_queueing(self, env, profile):
        _, server_node, client_node = make_pair(env)
        client = SmartPointerClient(client_node).start()
        server = SmartPointerServer(server_node)
        # cost 5.8 Mflop at 17.4 -> 0.33 s per event but 5/s arrivals:
        heavy = StreamProfile(base_size=KB(100), base_client_cost=5.8)
        server.add_client("maui", heavy, rate=5.0,
                          policy=NoAdaptation())
        env.run(until=30.0)
        # Queue must be building and latency climbing.
        assert client.queue_length > 10
        assert client.latencies.mean(since=20.0) > 1.0

    def test_sequential_frames(self, env, profile, monkeypatch):
        """The stream numbers its frames from 1, one per send."""
        _, server_node, client_node = make_pair(env)
        SmartPointerClient(client_node).start()
        stream = SmartPointerServer(server_node).add_client(
            "maui", profile, rate=2.0, policy=NoAdaptation(),
            start=False)
        sent = []
        send = Connection.send

        def spy(conn, event, size):
            if conn is stream._conn:
                sent.append((event.seq, event.sent_at))
            return send(conn, event, size=size)

        monkeypatch.setattr(Connection, "send", spy)
        stream.start()
        env.run(until=2.9)
        assert sent == [(1, 0.0), (2, 0.5), (3, 1.0), (4, 1.5),
                        (5, 2.0), (6, 2.5)]
        assert stream.seq == 6

    def test_duplicate_client_rejected(self, env, profile):
        _, server_node, _ = make_pair(env)
        server = SmartPointerServer(server_node)
        server.add_client("maui", profile, rate=1.0,
                          policy=NoAdaptation())
        with pytest.raises(SimulationError):
            server.add_client("maui", profile, rate=1.0,
                              policy=NoAdaptation())

    def test_logging_client_writes_to_disk(self, env, profile):
        _, server_node, client_node = make_pair(env)
        client = SmartPointerClient(client_node,
                                    logs_to_disk=True).start()
        server = SmartPointerServer(server_node)
        server.add_client("maui", profile, rate=2.0,
                          policy=NoAdaptation())
        env.run(until=10.0)
        assert client_node.disk.writes.total > 10

    def test_observations_without_dproc_are_empty(self, env, profile):
        _, server_node, _ = make_pair(env)
        server = SmartPointerServer(server_node)
        assert server.observations("maui") == {}

    def test_quality_trace_recorded(self, env, profile):
        _, server_node, client_node = make_pair(env)
        SmartPointerClient(client_node).start()
        server = SmartPointerServer(server_node)
        stream = server.add_client(
            "maui", profile, rate=5.0,
            policy=StaticAdaptation(Transform(downsample=0.5)))
        env.run(until=5.0)
        assert stream.quality == pytest.approx(0.5)


class TestRestart:
    """``stop()`` then ``start()`` leaves exactly one loop running."""

    @staticmethod
    def run(profile, restart_stream=False, restart_client=False,
            pause=0.0):
        from repro.sim import Environment
        env = Environment()
        _, server_node, client_node = make_pair(env)
        client = SmartPointerClient(client_node).start()
        # 0.33 s of rendering per event at 5 events/s: the client
        # queue is never empty, so a second render loop would share
        # the CPU and change every latency.
        heavy = StreamProfile(base_size=KB(100), base_client_cost=5.8)
        stream = SmartPointerServer(server_node).add_client(
            "maui", heavy, rate=5.0, policy=NoAdaptation())
        env.run(until=10.0)
        for part, restart in ((stream, restart_stream),
                              (client, restart_client)):
            if restart:
                part.stop()
                env.run(until=10.0 + pause)
                part.start()
        env.run(until=20.0)
        return (client.arrivals, client.processed.total,
                list(client.latencies))

    def test_restarted_stream_and_client_run_one_loop_each(self,
                                                           profile):
        plain = self.run(profile)
        assert self.run(profile, restart_stream=True) == plain
        assert self.run(profile, restart_client=True) == plain
        # A stream whose loop ended while stopped starts a new one,
        # and misses only the 1 s pause: 5 events.
        arrivals, _, _ = self.run(profile, restart_stream=True,
                                  pause=1.0)
        assert arrivals == pytest.approx(plain[0] - 5, abs=1)


class TestDynamicAdaptationEndToEnd:
    def make_system(self, policy, profile):
        """``make_pair``'s two nodes with dproc on both."""
        sc = Scenario(2, seed=7, dmon=DMonConfig(poll_interval=1.0),
                      node_configs=[NodeConfig(n_cpus=4),
                                    NodeConfig(n_cpus=1)]).build()
        for dp in sc.dprocs.values():
            dp.dmon.modules["cpu"].configure("period", 5.0)
        client = SmartPointerClient(sc.nodes["maui"]).start()
        server = SmartPointerServer(sc.nodes["alan"],
                                    dproc=sc.dprocs["alan"])
        server.add_client("maui", profile, rate=5.0, policy=policy,
                          caps=ClientCapabilities(mflops=17.4, n_cpus=1))
        return sc, server, client

    def test_figure9_shape(self, profile):
        """CPU-loaded client: dynamic beats static beats no-filter."""
        policy = DynamicAdaptation(resources=("cpu",))
        sc, server, client = self.make_system(policy, profile)
        sc.run_until(30.0)
        for _ in range(4):
            Linpack(sc.nodes["maui"]).start()
        sc.run_until(120.0)
        # The dynamic stream keeps up: full rate, low latency.
        assert client.event_rate(window=20.0) == pytest.approx(5.0,
                                                               rel=0.1)
        assert client.latencies.mean(since=100.0) < 1.0
        # And it visibly adapted (reduced client cost).
        assert policy.last_choice.client_cost(profile) \
            < profile.base_client_cost

    def test_no_filter_collapses_under_load(self, profile):
        sc, server, client = self.make_system(NoAdaptation(), profile)
        sc.run_until(30.0)
        for _ in range(4):
            Linpack(sc.nodes["maui"]).start()
        sc.run_until(120.0)
        assert client.event_rate(window=20.0) < 3.0
        assert client.latencies.mean(since=100.0) > 10.0

    def test_server_reads_fresh_monitoring_data(self, profile):
        sc, server, client = self.make_system(DynamicAdaptation(),
                                              profile)
        sc.run_until(10.0)
        obs = server.observations("maui")
        assert any(not math.isnan(v) for v in obs.values())
        assert obs["net_bandwidth"] > 0
