"""Cluster-wide aggregate views over dproc monitoring data.

The paper motivates dproc with management activities — load balancing,
task placement, resource distribution — that need *cluster-wide*
answers ("which node has a free CPU and the most memory?"), not single
readings.  :class:`ClusterView` layers those queries over one node's
dproc instance: it aggregates the local ``/proc/cluster`` cache over
the hosts whose ``status`` reads ``fresh``
(:meth:`~repro.dproc.dmon.DMon.peer_state`), so a consumer never acts
on a host d-mon itself reports stale or dead.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.dproc.dmon import PEER_FRESH
from repro.dproc.metrics import MetricId
from repro.dproc.toolkit import Dproc

__all__ = ["ClusterView"]


class ClusterView:
    """Aggregated view of the hosts d-mon reports fresh.

    Fresh means *heard* within the stale bound, not *up*: a healthy
    host whose parameters or filter keep nothing publishes nothing,
    reads stale and then dead, and drops out of every aggregate here
    (Fig 6's differential filter does this to most of a quiet
    cluster; EXPERIMENTS.md, "Known divergences", entry 4).
    """

    def __init__(self, dproc: Dproc) -> None:
        self.dproc = dproc

    # -- raw snapshots ------------------------------------------------------------

    def snapshot(self, metric: MetricId) -> dict[str, float]:
        """Readings of ``metric`` per fresh host (others omitted).

        The local host is a host like any other: its own last sample
        counts while its d-mon polls, and not once it has stopped.
        """
        dmon = self.dproc.dmon
        me = self.dproc.node.name
        values: dict[str, float] = {}
        for host in self.dproc.hosts():
            if dmon.peer_state(host) != PEER_FRESH:
                continue
            if host == me:
                if metric in dmon.last_samples:
                    values[host] = dmon.last_samples[metric]
                continue
            remote = dmon.remote_value(host, metric)
            if remote is not None:
                values[host] = remote.value
        return values

    # -- aggregates ---------------------------------------------------------------

    def extreme(self, metric: MetricId,
                largest: bool = True) -> tuple[Optional[str], float]:
        """(host, value) with the largest/smallest fresh reading."""
        values = self.snapshot(metric)
        if not values:
            return None, math.nan
        pick = max if largest else min
        host = pick(values, key=lambda h: values[h])
        return host, values[host]
