"""What one scenario deploys, in whichever process its hosts run.

The whole cluster lives in one process on the simulator and on a plain
live run; a live node pool gives each worker process a slice of the
hosts.  Every process gets its dprocs from the same frozen, picklable
:class:`Deployment` — it is what crosses the fork into pool workers —
and :meth:`Deployment.deploy` is the one place outside the toolkit
that calls :func:`repro.dproc.toolkit.deploy_dproc`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Sequence, Union

__all__ = ["Deployment"]


@dataclass(frozen=True)
class Deployment:
    """The cluster-wide deployment every process takes its share of."""

    seed: int
    dmon: Any
    modules: tuple
    #: Every host, in global (pre-partition) order.
    names: tuple
    #: Hosts that run a dproc (publish monitoring data), global order.
    monitored: tuple
    #: Hosts that subscribe to the monitoring channel (None = all).
    watchers: Optional[tuple] = None
    #: Live frame coalescing (a ``BatchConfig``; None = unbatched).
    batch: Any = None

    @staticmethod
    def select(names: Sequence[str],
               spec: Union[int, Sequence[str], None]) -> Optional[tuple]:
        """Resolve a host selector: the first k, the named, or None."""
        if spec is None:
            return None
        if isinstance(spec, int):
            return tuple(names[:spec])
        return tuple(spec)

    def host_slices(self, processes: int) -> list[list[str]]:
        """Contiguous host slices, one per live process (the parent
        runs slice 0).

        Contiguous (not round-robin) so ``nodes.names[:2]`` — the hosts
        harness scripts poke from setup hooks — stay on the parent.
        """
        processes = min(processes, len(self.names))
        base, extra = divmod(len(self.names), processes)
        slices, start = [], 0
        for i in range(processes):
            size = base + (1 if i < extra else 0)
            slices.append(list(self.names[start:start + size]))
            start += size
        return slices

    def deploy(self, nodes, bus, module_factory=None) -> dict:
        """Deploy and start dproc on the monitored hosts in ``nodes``.

        Every instance shows the same ``/proc/cluster``: one directory
        per monitored host of the whole deployment, wherever it runs.
        """
        from repro.dproc.dmon import DMonConfig
        from repro.dproc.toolkit import deploy_dproc
        local = set(nodes.names)
        config_fn = None
        if self.watchers is not None:
            base = self.dmon if self.dmon is not None else DMonConfig()
            quiet = replace(base, subscribe_monitoring=False)
            watching = frozenset(self.watchers)
            config_fn = lambda host: base if host in watching else quiet
        return deploy_dproc(
            nodes, config=self.dmon, modules=self.modules, bus=bus,
            hosts=[name for name in self.monitored if name in local],
            module_factory=module_factory, config_fn=config_fn,
            roster=self.monitored)
