"""Unit tests for cluster construction and node wiring."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError, TransportError
from repro.runtime.deployment import PAPER_NODE_NAMES
from repro.sim import Environment, NodeConfig, RngHub, build_cluster
from repro.units import MB


class TestBuildCluster:
    def test_default_names_match_paper(self, env):
        c = build_cluster(env, nodes=3)
        assert c.names == ["alan", "maui", "etna"]

    def test_names_extend_beyond_eight(self, env):
        c = build_cluster(env, nodes=10)
        assert c.names[8:] == ["node8", "node9"]

    def test_len_and_iter(self, cluster8):
        assert len(cluster8) == 8
        assert sorted(n.name for n in cluster8) == sorted(PAPER_NODE_NAMES)

    def test_unknown_node_lookup_raises(self, cluster3):
        with pytest.raises(SimulationError):
            cluster3["vesuvius"]

    def test_all_stacks_are_peered(self, env, cluster3):
        """Every stack resolves every host of its fabric, through the
        fabric's one directory."""
        stacks = cluster3.fabric.stacks
        assert set(stacks) == set(cluster3.names)
        heard = []
        for node in cluster3:
            assert stacks[node.name] is node.stack
            node.stack.bind(
                "t", lambda msg, me=node.name: heard.append((msg.src, me)))
        pairs = [(a.name, b.name) for a in cluster3 for b in cluster3
                 if a is not b]
        for src, dst in pairs:
            cluster3[src].stack.connect(dst, "t").send("x", 100)
        env.run()
        assert sorted(heard) == sorted(pairs)

    def test_unknown_destination_raises(self, env, cluster3):
        stack = cluster3["alan"].stack
        with pytest.raises(TransportError, match="unknown destination"):
            stack.connect("vesuvius", "t")
        # A host the fabric knows but no stack serves fails on arrival.
        cluster3.fabric.add_host("bare")
        stack.connect("bare", "t").send("x", 100)
        with pytest.raises(TransportError, match="no stack registered"):
            env.run()

    def test_peer_entries_grow_linearly(self, env):
        """Counted, not timed: one directory slot per node, not one
        table of n - 1 peers on each of n stacks."""
        cluster = build_cluster(env, nodes=1000)
        stacks = cluster.fabric.stacks
        assert len(stacks) == 1000
        for node in cluster:
            assert node.stack.fabric.stacks is stacks
            tables = [v for v in vars(node.stack).values()
                      if isinstance(v, dict)]
            assert sum(len(t) for t in tables) == 0

    def test_custom_config_applies(self, env):
        cfg = NodeConfig(n_cpus=4, memory_bytes=MB(256))
        c = build_cluster(env, nodes=2, node_configs=[cfg, cfg])
        assert c["alan"].cpu.n_cpus == 4
        assert c["alan"].memory.capacity_bytes == MB(256)

    def test_per_node_configs(self, env):
        cfgs = [NodeConfig(n_cpus=1), NodeConfig(n_cpus=4)]
        c = build_cluster(env, nodes=2, node_configs=cfgs)
        assert c["alan"].cpu.n_cpus == 1
        assert c["maui"].cpu.n_cpus == 4

    def test_mismatched_configs_rejected(self, env):
        with pytest.raises(SimulationError):
            build_cluster(env, nodes=3,
                          node_configs=[NodeConfig()])

    def test_zero_nodes_rejected(self, env):
        with pytest.raises(SimulationError):
            build_cluster(env, nodes=0)

    def test_names_mismatch_rejected(self, env):
        with pytest.raises(SimulationError):
            build_cluster(env, nodes=3, names=["a", "b"])

    def test_duplicate_node_rejected(self, cluster3):
        with pytest.raises(SimulationError):
            cluster3.add_node("alan")


class TestNode:
    def test_charge_kernel_seconds_consumes_cpu(self, env, cluster3):
        node = cluster3["alan"]
        node.charge_kernel_seconds(0.5)
        env.run(until=1.0)
        node.cpu.settle()
        assert node.cpu.busy_cpu_seconds == pytest.approx(0.5)

    def test_charge_on_idle_node_is_no_event(self, env, cluster3):
        """Nobody awaits a kernel charge, so it costs no event: the CPU
        completes it on the next look."""
        node = cluster3["alan"]
        env.run()
        before = env.events_processed
        assert node.charge_kernel_seconds(0.5) is None
        env.run(until=env.now + 1.0)
        assert env.events_processed == before
        assert node.cpu.active_jobs == 0

    def test_charge_negative_rejected(self, cluster3):
        with pytest.raises(SimulationError):
            cluster3["alan"].charge_kernel_seconds(-1)

    def test_spawn_names_process(self, env, cluster3):
        node = cluster3["alan"]

        def gen():
            yield env.timeout(1.0)

        proc = node.spawn(gen(), name="worker")
        assert proc.name == "alan:worker"
        env.run()

    def test_attach_service(self, cluster3):
        node = cluster3["alan"]
        node.attach_service("thing", object())
        with pytest.raises(SimulationError):
            node.attach_service("thing", object())

    def test_node_has_all_subsystems(self, cluster3):
        node = cluster3["etna"]
        assert node.cpu is not None
        assert node.memory.nr_free_pages() > 0
        assert node.disk.service_time(1024) > 0
        assert node.port.name == "etna"


def draws(stream, n=4):
    return [stream.random() for _ in range(n)]


class TestRngHub:
    def test_same_name_same_stream_object(self):
        hub = RngHub(1)
        assert hub.stream("a") is hub.stream("a")

    def test_streams_deterministic_across_hubs(self):
        a = draws(RngHub(5).stream("net"))
        b = draws(RngHub(5).stream("net"))
        assert a == b

    def test_different_names_differ(self):
        hub = RngHub(5)
        a = draws(hub.stream("x"))
        b = draws(hub.stream("y"))
        assert a != b

    def test_different_seeds_differ(self):
        a = draws(RngHub(1).stream("x"))
        b = draws(RngHub(2).stream("x"))
        assert a != b
