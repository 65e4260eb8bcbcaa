"""Centralized-collector monitoring baseline (Supermon-style).

The paper's related work singles out Supermon: "Scalability can be a
problem in Supermon because of the centralized data concentrator, which
collects monitoring data from all cluster nodes" — dproc's peer-to-peer
KECho channels avoid exactly that hotspot.

To make the claim measurable, this module implements the centralized
architecture with the *same* cost model and metric set as dproc: every
node pushes its samples to one collector each period; the collector
assembles a cluster digest and broadcasts it back so that (like dproc)
every node ends up knowing every node's state.  The scalability
benchmark compares the hottest node's monitoring CPU under both
architectures as the cluster grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.dproc.dmon import BYTES_PER_RECORD, EVENT_HEADER_BYTES
from repro.dproc.metrics import MetricId
from repro.dproc.modules import DEFAULT_MODULES, sim_module_factory
from repro.dproc.modules.base import MonitoringModule
from repro.errors import DprocError

if TYPE_CHECKING:
    from repro.sim.cluster import Cluster
    from repro.sim.node import Node

__all__ = ["CentralCollector", "PERIOD", "DAEMON_CROSSING_COST"]


#: Seconds between an agent's pushes and between digest broadcasts.
PERIOD = 1.0
#: Per-message user/kernel boundary cost at the collector daemon.
#: Supermon/MAGNeT-style collectors are user-space processes: every
#: message handled costs a socket syscall, a wakeup and a copy — the
#: crossings dproc's "strictly kernel-kernel messaging" avoids (paper
#: §1).  ~100 µs on the 200 MHz testbed CPUs.
DAEMON_CROSSING_COST = 100e-6


@dataclass
class _Agent:
    """Per-node state of the centralized system."""

    node: Node
    modules: list[MonitoringModule]
    #: Analytic monitoring CPU seconds consumed on this node.
    cpu_seconds: float = 0.0
    #: Samples pushed to the collector.
    pushes: float = 0.0


class CentralCollector:
    """The whole centralized monitoring system on one cluster."""

    def __init__(self, cluster: Cluster, collector: str,
                 metrics: Optional[frozenset[MetricId]] = None) -> None:
        """``metrics`` restricts what the agents push (None = every
        metric of the standard modules)."""
        if collector not in cluster.names:
            raise DprocError(f"no node named {collector!r}")
        self.cluster = cluster
        self.collector_name = collector
        self.metrics = metrics
        self.running = False
        self.agents: dict[str, _Agent] = {}
        #: Latest digest: host -> {metric: value} as known cluster-wide.
        self.digest: dict[str, dict[MetricId, float]] = {}
        #: What each node knows after the last broadcast.
        self.node_views: dict[str, dict[str, dict[MetricId, float]]] = {}
        self.digests_sent = 0.0
        for name in cluster.names:
            node = cluster[name]
            self.agents[name] = _Agent(
                node=node, modules=[sim_module_factory(module, node)
                                    for module in DEFAULT_MODULES])
            self.node_views[name] = {}

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "CentralCollector":
        if self.running:
            raise DprocError("central collector already running")
        self.running = True
        collector_node = self.cluster[self.collector_name]
        collector_node.stack.bind("central:push", self._on_push)
        for name, agent in self.agents.items():
            for module in agent.modules:
                module.start()
            if name != self.collector_name:
                agent.node.stack.bind(
                    "central:digest",
                    lambda msg, n=name: self._on_digest(n, msg))
            agent.node.spawn(self._agent_loop(agent), name="central")
        collector_node.spawn(self._broadcast_loop(),
                             name="central-digest")
        return self

    def stop(self) -> None:
        self.running = False
        for agent in self.agents.values():
            for module in agent.modules:
                module.stop()

    # -- data plane -----------------------------------------------------------

    def _sample(self, agent: _Agent) -> dict[MetricId, float]:
        now = agent.node.env.now
        samples: dict[MetricId, float] = {}
        costs = agent.node.costs
        for module in agent.modules:
            self._charge(agent, costs.module_poll)
            samples.update(zip(module.metrics(), module.collect(now)))
        if self.metrics is not None:
            samples = {m: v for m, v in samples.items()
                       if m in self.metrics}
        return samples

    def _event_size(self, n_records: int) -> float:
        return EVENT_HEADER_BYTES + BYTES_PER_RECORD * n_records

    def _agent_loop(self, agent: _Agent):
        env = agent.node.env
        yield env.timeout(float(
            agent.node.rng.uniform(0, PERIOD)))
        conn = None
        if agent.node.name != self.collector_name:
            conn = agent.node.stack.connect(self.collector_name,
                                            tag="central:push")
        while self.running:
            samples = self._sample(agent)
            if agent.node.name == self.collector_name:
                self.digest[agent.node.name] = samples
            elif samples and conn is not None:
                size = self._event_size(len(samples))
                costs = agent.node.costs
                self._charge(agent, costs.encode_cost(size)
                             + costs.send_cost(size, 1))
                conn.send({"host": agent.node.name,
                           "metrics": samples}, size=size)
                agent.pushes += 1.0
            yield env.timeout(PERIOD)

    def _on_push(self, msg) -> None:
        collector = self.agents[self.collector_name]
        self._charge(collector,
                     collector.node.costs.receive_cost(msg.size)
                     + DAEMON_CROSSING_COST)
        self.digest[msg.payload["host"]] = dict(msg.payload["metrics"])

    def _broadcast_loop(self):
        collector = self.agents[self.collector_name]
        env = collector.node.env
        conns = {}
        yield env.timeout(PERIOD)
        while self.running:
            if self.digest:
                n_records = sum(len(m) for m in self.digest.values())
                size = self._event_size(n_records)
                costs = collector.node.costs
                targets = [n for n in self.cluster.names
                           if n != self.collector_name]
                self._charge(collector,
                             costs.encode_cost(size)
                             + costs.send_cost(size, len(targets))
                             + DAEMON_CROSSING_COST * len(targets))
                snapshot = {h: dict(m) for h, m in self.digest.items()}
                for name in targets:
                    conn = conns.get(name)
                    if conn is None:
                        conn = collector.node.stack.connect(
                            name, tag="central:digest")
                        conns[name] = conn
                    conn.send(snapshot, size=size)
                self.node_views[self.collector_name] = snapshot
                self.digests_sent += 1.0
            yield env.timeout(PERIOD)

    def _on_digest(self, host: str, msg) -> None:
        agent = self.agents[host]
        self._charge(agent, agent.node.costs.receive_cost(msg.size))
        self.node_views[host] = msg.payload

    def _charge(self, agent: _Agent, seconds: float) -> None:
        agent.cpu_seconds += seconds
        agent.node.charge_kernel_seconds(seconds)

    # -- results ---------------------------------------------------------------

    def monitoring_cpu_seconds(self) -> dict[str, float]:
        """Analytic monitoring CPU consumed per node so far."""
        return {name: agent.cpu_seconds
                for name, agent in self.agents.items()}

    def hottest_node(self) -> tuple[str, float]:
        """The node carrying the most monitoring CPU (the hotspot)."""
        costs = self.monitoring_cpu_seconds()
        name = max(costs, key=lambda n: costs[n])
        return name, costs[name]

    def view(self, at_host: str, of_host: str,
             metric: MetricId) -> Optional[float]:
        """What ``at_host`` currently believes about ``of_host``."""
        return self.node_views.get(at_host, {}) \
            .get(of_host, {}).get(metric)
