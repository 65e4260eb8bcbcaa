"""The discrete-event simulator packaged as a :class:`Runtime`.

:class:`SimRuntime` is a thin adapter: it owns an
:class:`~repro.sim.core.Environment` and a
:class:`~repro.sim.cluster.Cluster` and presents them through the
backend-neutral :class:`repro.runtime.protocol.Runtime` surface, so
harnesses written against the protocol (the :class:`repro.api.Scenario`
facade, the cross-backend conformance suite) run on the simulator and
the live asyncio backend interchangeably.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.runtime.protocol import Bus, Clock, NodeGroup

__all__ = ["SimRuntime"]


class SimRuntime:
    """Deterministic simulated backend (virtual time, seeded RNG)."""

    backend = "sim"

    #: The simulator uses the standard module set (no factory needed).
    module_factory = None

    def __init__(self, nodes: int = 8, seed: int = 0,
                 names: Optional[Sequence[str]] = None,
                 node_configs: Optional[Sequence] = None) -> None:
        """Build a fresh environment + cluster; the cluster-shape
        kwargs pass straight through to
        :func:`repro.sim.cluster.build_cluster`."""
        from repro.sim.cluster import build_cluster
        from repro.sim.core import Environment
        self.env = Environment()
        self.cluster = build_cluster(
            self.env, nodes, seed=seed, names=names,
            node_configs=node_configs)
        self._bus = None

    @property
    def clock(self) -> Clock:
        return self.env

    @property
    def nodes(self) -> NodeGroup:
        return self.cluster

    def make_bus(self) -> Bus:
        """The runtime-wide KECho bus (one per runtime; idempotent)."""
        from repro.kecho import KechoBus
        if self._bus is None:
            self._bus = KechoBus()
        return self._bus

    bus = property(make_bus)

    def registries(self) -> dict:
        """Host → telemetry registry for every node of the run."""
        return {node.name: node.telemetry for node in self.cluster}

    def run(self, until: float) -> None:
        """Advance virtual time to ``until`` seconds."""
        self.env.run(until=until)
