"""Cluster construction helpers.

Builds the paper's testbed in one call: *n* nodes on a switched
100 Mbps fabric, each with CPUs/memory/disk/NIC, deterministic per-node
RNG streams, and full transport wiring (every stack delivers through
the fabric's one peer directory).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.errors import SimulationError
from repro.runtime.deployment import default_names
from repro.sim.core import Environment
from repro.sim.network import Fabric, SharedSegment
from repro.sim.node import Node, NodeConfig
from repro.sim.rng import RngHub

__all__ = ["Cluster", "build_cluster"]


class Cluster:
    """A set of wired-up nodes sharing one fabric and RNG hub."""

    def __init__(self, env: Environment, fabric: Fabric,
                 rng_hub: RngHub) -> None:
        self.env = env
        self.fabric = fabric
        self.rng = rng_hub
        self.nodes: dict[str, Node] = {}

    def add_node(self, name: str, config: NodeConfig | None = None,
                 segment: SharedSegment | str | None = None) -> Node:
        """Create and wire a node into the cluster."""
        if name in self.nodes:
            raise SimulationError(f"node {name!r} already exists")
        node = Node(self.env, name, self.fabric,
                    rng=self.rng.stream(f"node:{name}"),
                    config=config, segment=segment)
        self.nodes[name] = node
        return node

    def __getitem__(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise SimulationError(f"no node named {name!r}") from None

    def __iter__(self):
        return iter(self.nodes.values())

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def names(self) -> list[str]:
        return list(self.nodes)


def build_cluster(env: Environment, nodes: int = 8, *,
                  seed: int = 0,
                  names: Optional[Sequence[str]] = None,
                  node_configs: Optional[Iterable[NodeConfig]] = None
                  ) -> Cluster:
    """Build an *n*-node cluster on a fresh 100 Mbps switched fabric.

    Parameters
    ----------
    nodes:
        Cluster size (default 8, the paper's testbed).
    node_configs:
        Per-node hardware (iterable aligned with names); None gives
        every node the default :class:`NodeConfig`.
    names:
        Host names; defaults to the paper-style names, extended with
        ``nodeK`` beyond eight.
    """
    if nodes < 1:
        raise SimulationError("a cluster needs at least one node")
    names = default_names(nodes) if names is None else list(names)
    if len(names) != nodes:
        raise SimulationError("names/nodes mismatch")
    fabric = Fabric(env)
    cluster = Cluster(env, fabric, RngHub(seed))
    per_node = list(node_configs) if node_configs is not None \
        else [None] * nodes
    if len(per_node) != nodes:
        raise SimulationError("node_configs/nodes mismatch")
    for name, cfg in zip(names, per_node):
        cluster.add_node(name, config=cfg)
    return cluster
