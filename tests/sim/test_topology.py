"""Unit tests for arbitrary switch-graph topologies."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import NetworkError, RoutingError
from repro.sim import Environment
from repro.sim.topology import (GraphFabric, build_graph_cluster,
                                line_topology, tree_topology)
from repro.units import mbps, to_mbps


@pytest.fixture
def line3(env):
    """Three switches in a line, one host on each end."""
    fabric = GraphFabric(env, line_topology(3))
    fabric.add_host("a", switch="s0")
    fabric.add_host("b", switch="s2")
    return fabric


class TestTopologyBuilders:
    def test_line(self):
        g = line_topology(4)
        assert sorted(g.nodes) == ["s0", "s1", "s2", "s3"]
        assert g.number_of_edges() == 3

    def test_line_validation(self):
        with pytest.raises(NetworkError):
            line_topology(0)

    def test_tree(self):
        g = tree_topology(depth=2, fanout=2)
        assert g.number_of_nodes() == 7
        assert nx.is_tree(g)

    def test_tree_validation(self):
        with pytest.raises(NetworkError):
            tree_topology(depth=-1)


class TestGraphFabric:
    def test_empty_graph_rejected(self, env):
        with pytest.raises(NetworkError, match="empty"):
            GraphFabric(env, nx.Graph())

    def test_disconnected_graph_rejected(self, env):
        g = nx.Graph()
        g.add_nodes_from(["s0", "s1"])
        with pytest.raises(NetworkError, match="connected"):
            GraphFabric(env, g)

    def test_host_needs_switch(self, env):
        fabric = GraphFabric(env, line_topology(2))
        with pytest.raises(RoutingError, match="needs a switch"):
            fabric.add_host("x")

    def test_unknown_switch_rejected(self, env):
        fabric = GraphFabric(env, line_topology(2))
        with pytest.raises(RoutingError, match="unknown switch"):
            fabric.add_host("x", switch="s9")

    def test_segment_string_means_switch(self, env):
        """Node() passes its attachment via `segment`; a string is
        interpreted as the switch name."""
        fabric = GraphFabric(env, line_topology(2))
        fabric.add_host("x", segment="s1")
        assert fabric.switch_of("x") == "s1"

    def test_path_traverses_trunks_in_order(self, line3):
        names = [l.name for l in line3.path("a", "b")]
        assert names == ["a:tx", "trunk:s0->s1", "trunk:s1->s2",
                         "b:rx"]

    def test_reverse_path_uses_reverse_trunks(self, line3):
        names = [l.name for l in line3.path("b", "a")]
        assert names == ["b:tx", "trunk:s2->s1", "trunk:s1->s0",
                         "a:rx"]

    def test_same_switch_no_trunk(self, env):
        fabric = GraphFabric(env, line_topology(2))
        fabric.add_host("x", switch="s0")
        fabric.add_host("y", switch="s0")
        names = [l.name for l in fabric.path("x", "y")]
        assert names == ["x:tx", "y:rx"]

    def test_path_cache_invalidated_by_new_host(self, line3):
        line3.path("a", "b")
        line3.add_host("c", switch="s1")
        names = [l.name for l in line3.path("a", "c")]
        assert names == ["a:tx", "trunk:s0->s1", "c:rx"]

    def test_trunk_lookup(self, line3):
        assert line3.trunk("s0", "s1").name == "trunk:s0->s1"
        with pytest.raises(RoutingError):
            line3.trunk("s0", "s2")

    def test_edge_attribute_overrides(self, env):
        g = line_topology(2)
        g.edges["s0", "s1"]["capacity"] = mbps(10)
        fabric = GraphFabric(env, g)
        assert fabric.trunk("s0", "s1").capacity == mbps(10)


class TestTrafficOverGraph:
    def test_transfer_bottlenecked_by_thin_trunk(self, env):
        g = line_topology(2)
        g.edges["s0", "s1"]["capacity"] = mbps(10)
        fabric = GraphFabric(env, g)
        fabric.add_host("a", switch="s0")
        fabric.add_host("b", switch="s1")
        done = env.event()
        fabric.transfer("a", "b", mbps(10) * 1.0, on_done=done.succeed)
        env.run(done)
        assert env.now == pytest.approx(1.0, abs=0.01)

    def test_trunk_shared_by_crossing_flows(self, env):
        g = line_topology(2)
        g.edges["s0", "s1"]["capacity"] = mbps(100)
        fabric = GraphFabric(env, g)
        for h in ("a", "c"):
            fabric.add_host(h, switch="s0")
        for h in ("b", "d"):
            fabric.add_host(h, switch="s1")
        d1, d2 = env.event(), env.event()
        fabric.transfer("a", "b", mbps(50) * 1.0, on_done=d1.succeed)
        fabric.transfer("c", "d", mbps(50) * 1.0, on_done=d2.succeed)
        env.run(env.all_of([d1, d2]))
        # Both shared the 100 Mbps trunk at 50 Mbps each -> 1 s.
        assert env.now == pytest.approx(1.0, abs=0.02)

    def test_fixed_flow_perturbs_across_trunk(self, env):
        fabric = GraphFabric(env, line_topology(3),
                             trunk_capacity=mbps(100))
        fabric.add_host("a", switch="s0")
        fabric.add_host("b", switch="s2")
        fabric.add_host("p1", switch="s0")
        fabric.add_host("p2", switch="s2")
        fabric.open_fixed_flow("p1", "p2", mbps(70))
        assert to_mbps(fabric.available_bandwidth("a", "b")) \
            == pytest.approx(30.0, rel=0.01)


class TestGraphCluster:
    def test_build_and_run_dproc(self, env):
        """dproc works unchanged on a multi-switch topology."""
        from repro.dproc import MetricId, deploy_dproc

        placement = {"a": "s0", "b": "s1", "c": "s2"}
        cluster = build_graph_cluster(env, line_topology(3), placement)
        assert sorted(cluster.names) == ["a", "b", "c"]
        dprocs = deploy_dproc(cluster)
        env.run(until=4.0)
        assert dprocs["a"].dmon.remote_value(
            "c", MetricId.FREEMEM) is not None

    def test_empty_placement_rejected(self, env):
        with pytest.raises(NetworkError):
            build_graph_cluster(env, line_topology(2), {})

    def test_placement_determines_switch(self, env):
        cluster = build_graph_cluster(env, tree_topology(1, 2),
                                      {"x": "s1", "y": "s2"})
        fabric = cluster.fabric
        assert fabric.switch_of("x") == "s1"
        names = [l.name for l in fabric.path("x", "y")]
        assert "trunk:s1->s0" in names and "trunk:s0->s2" in names
