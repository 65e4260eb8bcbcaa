"""Cluster-wide aggregate views over dproc monitoring data.

The paper motivates dproc with management activities — load balancing,
task placement, resource distribution — that need *cluster-wide*
answers ("which node has a free CPU and the most memory?"), not single
readings.  :class:`ClusterView` layers those queries over one node's
dproc instance: it aggregates the local ``/proc/cluster`` cache with
explicit staleness handling, so a consumer never acts on data older
than it can tolerate.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.dproc.metrics import MetricId
from repro.dproc.toolkit import Dproc
from repro.errors import DprocError

__all__ = ["ClusterView"]


class ClusterView:
    """Aggregated, staleness-aware view of the whole cluster."""

    def __init__(self, dproc: Dproc, staleness: float = 5.0) -> None:
        """``staleness`` — maximum age (seconds) of a remote reading
        before it is treated as unknown."""
        if staleness <= 0:
            raise DprocError("staleness bound must be positive")
        self.dproc = dproc
        self.staleness = float(staleness)

    # -- raw snapshots ------------------------------------------------------------

    def snapshot(self, metric: MetricId,
                 include_self: bool = True) -> dict[str, float]:
        """Fresh readings of ``metric`` per host (stale ones omitted)."""
        now = self.dproc.node.env.now
        dmon = self.dproc.dmon
        values: dict[str, float] = {}
        for host in self.dproc.hosts():
            if host == self.dproc.node.name:
                if include_self and metric in dmon.last_samples:
                    values[host] = dmon.last_samples[metric]
                continue
            remote = dmon.remote_value(host, metric)
            if remote is None:
                continue
            if now - remote.received_at > self.staleness:
                continue
            values[host] = remote.value
        return values

    # -- aggregates ---------------------------------------------------------------

    def mean(self, metric: MetricId) -> float:
        """Mean over fresh readings (NaN when nothing is fresh)."""
        values = self.snapshot(metric)
        if not values:
            return math.nan
        return sum(values.values()) / len(values)

    def total(self, metric: MetricId) -> float:
        """Sum over fresh readings (NaN when nothing is fresh)."""
        values = self.snapshot(metric)
        return sum(values.values()) if values else math.nan

    def extreme(self, metric: MetricId,
                largest: bool = True) -> tuple[Optional[str], float]:
        """(host, value) with the largest/smallest fresh reading."""
        values = self.snapshot(metric)
        if not values:
            return None, math.nan
        pick = max if largest else min
        host = pick(values, key=lambda h: values[h])
        return host, values[host]
