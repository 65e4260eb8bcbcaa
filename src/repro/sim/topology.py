"""Arbitrary multi-switch topologies on top of the fluid fabric.

The base :class:`~repro.sim.network.Fabric` models the paper's testbed:
one ideal switch, optional shared segments.  Grids and large clusters
(the paper's future work) have switch hierarchies; this module provides
:class:`GraphFabric`, which routes over an arbitrary switch graph
described with :mod:`networkx` (imported on first use of a graph
topology, so runs on the plain fabric never load it):

* graph nodes are switches; graph edges are trunks, each realised as a
  pair of directed :class:`~repro.sim.link.Link` objects with
  per-edge ``capacity`` (bytes/s) and ``latency`` attributes;
* hosts attach to a named switch and keep their full-duplex access
  links;
* paths are shortest switch paths (by hop count, latency-weighted),
  computed once and cached.

Everything above routing — max-min allocation, transfers, fixed flows,
transport, KECho, dproc — works unchanged on a :class:`GraphFabric`.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import NetworkError, RoutingError
from repro.sim.cluster import Cluster
from repro.sim.core import Environment
from repro.sim.link import Link
from repro.sim.network import Fabric, HostPort
from repro.sim.node import NodeConfig
from repro.sim.rng import RngHub
from repro.units import mbps, usec

__all__ = ["GraphFabric", "build_graph_cluster", "line_topology",
           "tree_topology"]


class GraphFabric(Fabric):
    """A fabric whose core is an arbitrary switch graph."""

    def __init__(self, env: Environment, graph: nx.Graph,
                 access_capacity: float = mbps(100),
                 access_latency: float = usec(50),
                 trunk_capacity: float = mbps(1000),
                 trunk_latency: float = usec(100),
                 switch_latency: float = usec(10)) -> None:
        """``graph`` edges may carry ``capacity``/``latency`` attributes
        overriding the trunk defaults."""
        super().__init__(env, access_capacity=access_capacity,
                         access_latency=access_latency,
                         switch_latency=switch_latency)
        import networkx as nx
        if graph.number_of_nodes() == 0:
            raise NetworkError("switch graph is empty")
        if not nx.is_connected(graph):
            raise NetworkError("switch graph must be connected")
        self.graph = graph
        self._host_switch: dict[str, str] = {}
        self._trunks: dict[tuple[str, str], Link] = {}
        self._path_cache: dict[tuple[str, str], tuple[Link, ...]] = {}
        for u, v, attrs in graph.edges(data=True):
            capacity = attrs.get("capacity", trunk_capacity)
            latency = attrs.get("latency", trunk_latency)
            self._trunks[(u, v)] = Link(f"trunk:{u}->{v}", capacity,
                                        latency)
            self._trunks[(v, u)] = Link(f"trunk:{v}->{u}", capacity,
                                        latency)

    # -- topology ------------------------------------------------------------

    def add_host(self, name: str,
                 capacity: Optional[float] = None,
                 segment=None, switch: Optional[str] = None) -> HostPort:
        """Attach a host to a switch.

        ``switch`` names the switch; for compatibility with callers of
        the base fabric (:class:`~repro.sim.node.Node` passes
        ``segment``), a string ``segment`` is accepted as the switch
        name as well.
        """
        if switch is None and isinstance(segment, str):
            switch, segment = segment, None
        if switch is None:
            raise RoutingError(
                f"host {name!r} needs a switch to attach to")
        if switch not in self.graph:
            raise RoutingError(f"unknown switch {switch!r}")
        port = super().add_host(name, capacity=capacity, segment=None)
        self._host_switch[name] = switch
        self._path_cache.clear()
        return port

    def switch_of(self, host: str) -> str:
        try:
            return self._host_switch[host]
        except KeyError:
            raise RoutingError(f"unknown host {host!r}") from None

    def trunk(self, u: str, v: str) -> Link:
        """The directed trunk link from switch ``u`` to switch ``v``."""
        try:
            return self._trunks[(u, v)]
        except KeyError:
            raise RoutingError(f"no trunk {u!r} -> {v!r}") from None

    def path(self, src: str, dst: str) -> tuple[Link, ...]:
        if src == dst:
            raise RoutingError(f"no self-path for host {src!r}")
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return cached
        try:
            sport, dport = self.hosts[src], self.hosts[dst]
        except KeyError as exc:
            raise RoutingError(f"unknown host {exc.args[0]!r}") \
                from None
        s_switch = self.switch_of(src)
        d_switch = self.switch_of(dst)
        links: list[Link] = [sport.tx]
        if s_switch != d_switch:
            import networkx as nx
            switches = nx.shortest_path(self.graph, s_switch, d_switch,
                                        weight="latency")
            for u, v in zip(switches, switches[1:]):
                links.append(self._trunks[(u, v)])
        links.append(dport.rx)
        result = tuple(links)
        self._path_cache[(src, dst)] = result
        return result


def line_topology(n_switches: int) -> nx.Graph:
    """``s0 - s1 - ... - s(n-1)``: the worst-diameter core."""
    import networkx as nx
    if n_switches < 1:
        raise NetworkError("need at least one switch")
    return nx.path_graph([f"s{i}" for i in range(n_switches)])


def tree_topology(depth: int, fanout: int = 2) -> nx.Graph:
    """Balanced switch tree (datacenter-style aggregation)."""
    import networkx as nx
    if depth < 0 or fanout < 1:
        raise NetworkError("invalid tree parameters")
    tree = nx.balanced_tree(fanout, depth)
    return nx.relabel_nodes(tree, {i: f"s{i}" for i in tree.nodes})


def build_graph_cluster(env: Environment, graph: nx.Graph,
                        placement: dict[str, str],
                        config: NodeConfig | None = None,
                        seed: int = 0,
                        **fabric_kwargs) -> Cluster:
    """Build a cluster whose hosts sit on an arbitrary switch graph.

    ``placement`` maps host name → switch name.
    """
    if not placement:
        raise NetworkError("placement is empty")
    fabric = GraphFabric(env, graph, **fabric_kwargs)
    cluster = Cluster(env, fabric, RngHub(seed))
    for host, switch in placement.items():
        cluster.add_node(host, config=config, segment=switch)
    return cluster
