"""The SmartPointer client: receive, render, (optionally) log.

Clients range "from high-end displays like ImmersaDesk to smaller
displays like iPAQ, storage clients and fast desktop machines" — here a
client is parameterised by its node hardware, whether it logs frames to
disk, and its render pipeline.

Latency accounting matches the paper's Figure 9: "the amount of time
required for a data packet to be submitted by the server and processed
by the client" — i.e. submission → end of client processing, including
time spent queued behind earlier events.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.sim.core import Process
from repro.sim.node import Node
from repro.sim.stores import Store
from repro.runtime.series import MEASUREMENT_HISTORY, CounterTrace
from repro.smartpointer.server import StreamEvent

__all__ = ["SmartPointerClient"]


class SmartPointerClient:
    """One stream consumer on one node."""

    def __init__(self, node: Node, logs_to_disk: bool = False) -> None:
        self.node = node
        self.logs_to_disk = logs_to_disk
        self.running = False
        self._loop: Optional[Process] = None
        self._queue: Store[StreamEvent] = Store(node.env)
        # statistics ----------------------------------------------------------
        #: Events received (rendered or not).
        self.arrivals = 0.0
        self.processed = CounterTrace(MEASUREMENT_HISTORY)
        self.latencies = CounterTrace(MEASUREMENT_HISTORY)
        node.stack.bind(f"smartptr:{node.name}", self._on_event)

    def start(self) -> "SmartPointerClient":
        if self.running:
            raise SimulationError("client already running")
        self.running = True
        # A loop stopped while waiting for an event carries on: one
        # loop takes each event.
        if self._loop is None or not self._loop.is_alive:
            self._loop = self.node.spawn(self._render_loop(),
                                         name="smartptr-client")
        return self

    def stop(self) -> None:
        self.running = False

    # -- data path ------------------------------------------------------------

    def _on_event(self, msg) -> None:
        self.arrivals += 1.0
        self._queue.put(msg.payload)

    def _render_loop(self):
        env = self.node.env
        while self.running:
            event: StreamEvent = yield self._queue.get()
            if event.client_cost > 0:
                yield self.node.cpu.execute(event.client_cost,
                                            name="render")
            if self.logs_to_disk:
                yield self.node.disk.write(event.size)
            now = env.now
            self.processed.add(now, 1.0)
            self.latencies.add(now, now - event.sent_at)

    # -- results ---------------------------------------------------------------

    @property
    def queue_length(self) -> int:
        """Events received but not yet rendered."""
        return len(self._queue)

    def event_rate(self, window: float) -> float:
        """Processed events/s over the trailing window."""
        return self.processed.rate(self.node.env.now, window)
