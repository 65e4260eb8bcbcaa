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

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.errors import NetworkError, RoutingError
from repro.sim.cluster import Cluster
from repro.sim.core import Environment
from repro.sim.link import Link
from repro.sim.network import Fabric, HostPort
from repro.sim.node import NodeConfig
from repro.sim.rng import RngHub
from repro.units import mbps, msec, usec

__all__ = ["GraphFabric", "build_graph_cluster", "line_topology",
           "tree_topology", "ShardPlan", "partition_nodes",
           "partition_placement", "DEFAULT_SHARD_LOOKAHEAD"]

#: Default inter-shard boundary latency: the WAN-link class
#: (:class:`repro.dproc.federation.WanLink` defaults to 40 ms), which
#: is what makes the cut links safe lookahead horizons.
DEFAULT_SHARD_LOOKAHEAD = msec(40)


@dataclass(frozen=True)
class ShardPlan:
    """A partition of a cluster's hosts into per-worker shards.

    ``shards[i]`` is the ordered tuple of host names owned by worker
    ``i``; ``lookahead`` is the conservative synchronisation horizon —
    the minimum latency of any cut (inter-shard) link, so a
    cross-shard event sent at ``t`` can never arrive before
    ``t + lookahead``.  ``cut_edges`` lists the switch-graph trunks
    severed by the partition (empty for flat-fabric partitions, whose
    boundary is the implicit WAN hop).
    """

    shards: tuple[tuple[str, ...], ...]
    lookahead: float = DEFAULT_SHARD_LOOKAHEAD
    cut_edges: tuple[tuple[str, str], ...] = ()
    _owner: Mapping[str, int] = field(init=False, repr=False,
                                      compare=False, hash=False,
                                      default=None)

    def __post_init__(self) -> None:
        if not self.shards or not any(self.shards):
            raise NetworkError("a shard plan needs at least one host")
        if self.lookahead <= 0:
            raise NetworkError(
                f"lookahead must be positive, got {self.lookahead!r}")
        owner: dict[str, int] = {}
        for index, hosts in enumerate(self.shards):
            for host in hosts:
                if host in owner:
                    raise NetworkError(
                        f"host {host!r} appears in shards "
                        f"{owner[host]} and {index}")
                owner[host] = index
        object.__setattr__(self, "_owner", owner)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def names(self) -> tuple[str, ...]:
        """All hosts in global order (shard-0 first, round-robin safe
        callers should keep their own global ordering)."""
        return tuple(h for shard in self.shards for h in shard)

    def shard_of(self, host: str) -> int:
        try:
            return self._owner[host]
        except KeyError:
            raise NetworkError(f"host {host!r} is in no shard") from None

    def validate(self, names: Sequence[str]) -> None:
        """Check the plan covers exactly ``names`` (each once)."""
        expected = set(names)
        got = set(self._owner)
        if expected != got:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise NetworkError(
                f"shard plan mismatch: missing={missing} extra={extra}")
        if len(names) != len(expected):
            raise NetworkError("duplicate host names")


def partition_nodes(names: Sequence[str], workers: int,
                    lookahead: float = DEFAULT_SHARD_LOOKAHEAD
                    ) -> ShardPlan:
    """Round-robin partition of a flat cluster into ``workers`` shards.

    Host ``i`` goes to shard ``i % workers``, which spreads the
    front-end watcher nodes (conventionally the first k hosts) evenly
    across shards instead of piling them onto shard 0.  The boundary
    between shards is modelled as a WAN-class hop of ``lookahead``
    seconds minimum latency.
    """
    if workers < 1:
        raise NetworkError(f"need at least one worker, got {workers}")
    names = list(names)
    if len(set(names)) != len(names):
        raise NetworkError("duplicate host names")
    workers = min(workers, len(names))
    shards: list[list[str]] = [[] for _ in range(workers)]
    for i, name in enumerate(names):
        shards[i % workers].append(name)
    return ShardPlan(shards=tuple(tuple(s) for s in shards),
                     lookahead=lookahead)


def partition_placement(graph: nx.Graph, placement: Mapping[str, str],
                        workers: int,
                        trunk_latency: float = usec(100),
                        min_lookahead: float | None = None
                        ) -> ShardPlan:
    """Topology-aware partition: keep each switch's hosts together.

    Switches are packed onto workers greedily (heaviest switch first,
    onto the lightest worker), so intra-switch traffic never crosses a
    shard boundary.  The plan's lookahead is the minimum latency over
    the *cut* trunks — the switch-graph edges whose endpoints landed
    on different workers.  A cut through low-latency datacenter trunks
    yields a tiny lookahead and therefore tiny windows; callers can
    assert a floor with ``min_lookahead`` (raising instead of silently
    thrashing) — this is the "sharding hurts chatty LAN topologies"
    guard.
    """
    if workers < 1:
        raise NetworkError(f"need at least one worker, got {workers}")
    if not placement:
        raise NetworkError("placement is empty")
    hosts_per_switch: dict[str, list[str]] = {}
    for host, switch in placement.items():
        if switch not in graph:
            raise RoutingError(f"unknown switch {switch!r}")
        hosts_per_switch.setdefault(switch, []).append(host)
    workers = min(workers, len(hosts_per_switch))
    # Greedy balanced bin-packing, deterministic: sort switches by
    # (host count desc, name) and drop each onto the lightest worker.
    order = sorted(hosts_per_switch,
                   key=lambda s: (-len(hosts_per_switch[s]), s))
    loads = [0] * workers
    switch_owner: dict[str, int] = {}
    shards: list[list[str]] = [[] for _ in range(workers)]
    for switch in order:
        target = min(range(workers), key=lambda i: (loads[i], i))
        switch_owner[switch] = target
        shards[target].extend(hosts_per_switch[switch])
        loads[target] += len(hosts_per_switch[switch])
    cut: list[tuple[str, str]] = []
    lookahead = float("inf")
    for u, v, attrs in graph.edges(data=True):
        owner_u = switch_owner.get(u)
        owner_v = switch_owner.get(v)
        # Host-less switches carry no simulated traffic: an edge is a
        # cut only when both sides own hosts on different workers.
        if owner_u is None or owner_v is None or owner_u == owner_v:
            continue
        cut.append((u, v))
        lookahead = min(lookahead,
                        float(attrs.get("latency", trunk_latency)))
    if not cut:
        # Everything fits on one worker (or the graph has no
        # cross-worker trunk): the boundary is the WAN default.
        lookahead = DEFAULT_SHARD_LOOKAHEAD
    if min_lookahead is not None and lookahead < min_lookahead:
        raise NetworkError(
            f"partition cuts a {lookahead:.6g}s-latency trunk, below "
            f"the {min_lookahead:.6g}s floor; sharding this topology "
            f"would thrash on synchronisation")
    return ShardPlan(shards=tuple(tuple(s) for s in shards),
                     lookahead=lookahead,
                     cut_edges=tuple(sorted(cut)))


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
