"""NET_MON: connection round-trip times, bandwidths, losses.

"This module monitors the round-trip times of established network
connections, the used bandwidth of all connections at a node and of all
individual connections, the number of re-transmissions (for TCP), the
number of lost messages (for UDP), and the end-to-end delay for both
TCP and UDP connections." (paper §2.1)

Additionally reports *available* bandwidth — the residual capacity of
the node's access links (and shared segment, if any) — which is the
signal the SmartPointer server adapts to in Figure 10.
"""

from __future__ import annotations

from repro.dproc.metrics import MetricId
from repro.dproc.modules.base import MonitoringModule
from repro.errors import DprocError
from repro.runtime.protocol import RuntimeNode

__all__ = ["NetMon"]


class NetMon(MonitoringModule):
    """Network statistics sampler."""

    name = "net"

    def __init__(self, node: RuntimeNode, window: float = 1.0) -> None:
        super().__init__(node)
        if window <= 0:
            raise DprocError("net window must be positive")
        self.window = float(window)

    def metrics(self) -> tuple[MetricId, ...]:
        return (MetricId.NET_BANDWIDTH, MetricId.NET_RTT,
                MetricId.NET_RETX, MetricId.NET_LOST, MetricId.NET_USED,
                MetricId.NET_DELAY)

    # -- sampling ------------------------------------------------------------

    def available_bandwidth(self) -> float:
        """Residual capacity on this node's attachment links (bytes/s).

        Uses the tightest of the TX, RX and (when present) shared
        segment links — the bandwidth a new flow to/from this node
        could still get.
        """
        fabric = self.node.stack.fabric
        fabric.settle()
        port = self.node.port
        links = [port.tx, port.rx]
        if port.segment is not None:
            links.append(port.segment.link)
        best = float("inf")
        for link in links:
            used = sum(f.rate for f in fabric.flows_through(link))
            best = min(best, max(0.0, link.capacity - used))
        return best

    def collect(self, now: float) -> list[float]:
        stack = self.node.stack
        w = self.window
        rtts = [c.last_rtt for c in stack.connections
                if c.last_rtt is not None]
        rtt = sum(rtts) / len(rtts) if rtts else 0.0
        retx = sum(c.retransmissions.rate(now, w)
                   for c in stack.connections)
        lost = sum(c.losses.rate(now, w) for c in stack.connections)
        # End-to-end delay: mean over each connection's most recent
        # delivered-message delay ("the end-to-end delay for both TCP
        # and UDP connections", §2.1).
        delays = [c.last_delay for c in stack.connections
                  if c.last_delay is not None]
        delay = sum(delays) / len(delays) if delays else 0.0
        return [self.available_bandwidth(), rtt, retx, lost,
                stack.bytes_out.rate(now, w), delay]
