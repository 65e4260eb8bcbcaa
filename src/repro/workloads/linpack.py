"""Linpack-like CPU benchmark.

"Linpack is a CPU-intensive benchmark commonly used to measure the
floating point computation power of CPUs in Mflops.  We measure the
change in linpack performance by running dproc on 0-8 nodes in the
cluster and running linpack on one of them." (paper §4.1)

The simulated linpack is a single-threaded job that repeatedly solves
fixed-size "panels" (blocks of Mflop) on the node's CPU and reports the
achieved Mflop/s — any kernel monitoring work on the same node steals
cycles and lowers the score, exactly the Figure 4 mechanism.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.node import Node
from repro.runtime.series import MEASUREMENT_HISTORY, CounterTrace

__all__ = ["Linpack"]


class Linpack:
    """A single linpack thread on one node."""

    def __init__(self, node: Node, block_mflop: float = 1.74) -> None:
        """``block_mflop`` is the work per solved panel (~0.1 s each
        on the paper's 17.4 Mflops machines)."""
        if block_mflop <= 0:
            raise SimulationError("block size must be positive")
        self.node = node
        self.block_mflop = float(block_mflop)
        self.running = False
        self.completed = CounterTrace(MEASUREMENT_HISTORY)
        self.started_at: float | None = None
        self.stopped_at: float | None = None
        self._proc = None

    def start(self) -> "Linpack":
        """Begin crunching; returns self for chaining."""
        if self.running:
            raise SimulationError("linpack already running")
        self.running = True
        self.started_at = self.node.env.now
        self._proc = self.node.spawn(self._loop(), name="linpack")
        return self

    def stop(self) -> None:
        self.running = False
        self.stopped_at = self.node.env.now

    def _loop(self):
        env = self.node.env
        while self.running:
            yield self.node.cpu.execute(self.block_mflop, name="linpack")
            self.completed.add(env.now, self.block_mflop)

    # -- results ---------------------------------------------------------------

    def mflops(self, since: float | None = None,
               until: float | None = None) -> float:
        """Achieved Mflop/s over a window (default: whole run)."""
        if self.started_at is None:
            raise SimulationError("linpack never started")
        t0 = self.started_at if since is None else since
        t1 = self.node.env.now if until is None else until
        if self.stopped_at is not None:
            t1 = min(t1, self.stopped_at)
        if t1 <= t0:
            raise SimulationError("empty measurement window")
        return self.completed.count_between(t0, t1) / (t1 - t0)
