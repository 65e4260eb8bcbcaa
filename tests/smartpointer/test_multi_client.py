"""Integration tests: heterogeneous clients on one SmartPointer server.

The paper's client zoo (§4.2): "different clients which can range from
high-end display like ImmersaDesk to smaller display like iPAQ, storage
clients and fast desktop machines.  The clients can subscribe to any of
a number of different derivations of that data."
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.dproc import DMonConfig
from repro.sim import NodeConfig
from repro.smartpointer import (ClientCapabilities, DynamicAdaptation,
                                NoAdaptation, SmartPointerClient,
                                SmartPointerServer, StaticAdaptation,
                                StreamProfile, Transform)
from repro.units import KB, MB
from repro.workloads import Linpack


@pytest.fixture
def sc():
    """Server + ImmersaDesk (big display), iPAQ (weak handheld) and a
    storage client, all with dproc deployed."""
    return Scenario(
        4, seed=21, dmon=DMonConfig(poll_interval=1.0),
        names=["server", "immersadesk", "ipaq", "storage"],
        node_configs=[
            NodeConfig(n_cpus=4),                        # server
            NodeConfig(n_cpus=2, mflops_per_cpu=17.4),   # display wall
            NodeConfig(n_cpus=1, mflops_per_cpu=2.0),    # handheld
            NodeConfig(n_cpus=1, disk_rate=MB(10)),      # archiver
        ]).build()


@pytest.fixture
def zoo(sc):
    for dp in sc.dprocs.values():
        dp.dmon.modules["cpu"].configure("period", 4.0)
    server = SmartPointerServer(sc.nodes["server"],
                                dproc=sc.dprocs["server"])
    profile = StreamProfile(base_size=KB(150), base_client_cost=1.8,
                            server_preprocess_cost=1.5)
    return sc.nodes, server, profile


class TestHeterogeneousClients:
    def test_three_independent_derivations(self, sc, zoo):
        cluster, server, profile = zoo
        desk = SmartPointerClient(cluster["immersadesk"]).start()
        ipaq = SmartPointerClient(cluster["ipaq"]).start()
        storage = SmartPointerClient(cluster["storage"],
                                     logs_to_disk=True).start()
        server.add_client("immersadesk", profile, rate=5.0,
                          policy=NoAdaptation(),
                          caps=ClientCapabilities(mflops=17.4,
                                                  n_cpus=2))
        # The handheld subscribes to a heavily reduced derivation:
        # positions only, fully pre-rendered at the server.
        server.add_client("ipaq", profile, rate=2.0,
                          policy=StaticAdaptation(
                              Transform(preprocess=1.0, content=0.55)),
                          caps=ClientCapabilities(mflops=2.0))
        server.add_client("storage", profile, rate=5.0,
                          policy=NoAdaptation(),
                          caps=ClientCapabilities(
                              disk_rate=MB(10), logs_to_disk=True))
        sc.run_until(30.0)
        # Everyone keeps up with their own derivation.
        assert desk.event_rate(10.0) == pytest.approx(5.0, rel=0.15)
        assert ipaq.event_rate(10.0) == pytest.approx(2.0, rel=0.2)
        assert storage.event_rate(10.0) == pytest.approx(5.0, rel=0.15)
        # The storage client actually archived frames.
        assert cluster["storage"].disk.writes.total > 100

    def test_per_client_streams_are_isolated(self, sc, zoo):
        """Overloading one client must not disturb another's stream."""
        cluster, server, profile = zoo
        desk = SmartPointerClient(cluster["immersadesk"]).start()
        ipaq = SmartPointerClient(cluster["ipaq"]).start()
        server.add_client("immersadesk", profile, rate=5.0,
                          policy=DynamicAdaptation(resources=("cpu",)),
                          caps=ClientCapabilities(mflops=17.4,
                                                  n_cpus=2))
        server.add_client("ipaq", profile, rate=2.0,
                          policy=DynamicAdaptation(resources=("cpu",)),
                          caps=ClientCapabilities(mflops=2.0))
        sc.run_until(20.0)
        for _ in range(6):
            Linpack(cluster["ipaq"]).start()
        sc.run_until(80.0)
        # The wall display is untouched by the handheld's overload.
        assert desk.event_rate(20.0) == pytest.approx(5.0, rel=0.15)
        assert desk.latencies.mean(since=60.0) < 0.5
        # The handheld's stream degraded gracefully (adapted, alive).
        assert ipaq.event_rate(20.0) == pytest.approx(2.0, rel=0.3)

    def test_weak_client_needs_adaptation(self, sc, zoo):
        """The iPAQ cannot render the full feed: without adaptation it
        drowns; the dynamic policy sizes the stream to its 2 Mflops."""
        cluster, server, profile = zoo
        ipaq = SmartPointerClient(cluster["ipaq"]).start()
        server.add_client("ipaq", profile, rate=2.0,
                          policy=NoAdaptation(),
                          caps=ClientCapabilities(mflops=2.0))
        sc.run_until(60.0)
        # full frame: 1.8 Mflop at 2 Mflops = 0.9 s per event > 0.5 s
        assert ipaq.queue_length > 10
        assert ipaq.latencies.mean(since=40.0) > 5.0

    def test_dynamic_policy_fits_weak_client(self, sc, zoo):
        cluster, server, profile = zoo
        ipaq = SmartPointerClient(cluster["ipaq"]).start()
        policy = DynamicAdaptation(resources=("cpu",))
        server.add_client("ipaq", profile, rate=2.0, policy=policy,
                          caps=ClientCapabilities(mflops=2.0))
        sc.run_until(60.0)
        assert ipaq.event_rate(20.0) == pytest.approx(2.0, rel=0.15)
        assert ipaq.latencies.mean(since=40.0) < 1.0
        # it visibly reduced the stream for the weak device
        assert policy.last_choice.quality() < 1.0
