"""Ambient background activity for realistic, fluctuating metrics.

The differential filter and threshold experiments need metrics that
actually move.  :class:`AmbientActivity` runs a gentle mix of CPU
bursts, disk flushes and memory churn with deterministic (seeded)
randomness; intensity 0 disables it.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.core import Process
from repro.sim.node import Node
from repro.units import KB, MB

__all__ = ["AmbientActivity"]


class AmbientActivity:
    """Seeded low-level background load on one node."""

    def __init__(self, node: Node, intensity: float = 1.0) -> None:
        """``intensity`` scales both event rates and sizes (0 disables,
        1 is a lightly loaded workstation)."""
        if intensity < 0:
            raise SimulationError("intensity cannot be negative")
        self.node = node
        self.intensity = float(intensity)
        self.running = False
        self._rng = node.rng
        self._loops: dict[str, Process] = {}

    def start(self) -> "AmbientActivity":
        if self.running:
            raise SimulationError("ambient activity already running")
        if self.intensity == 0:
            return self
        self.running = True
        # A loop stopped but not yet woken carries on: one of each.
        for name, loop in (("ambient-cpu", self._cpu_loop),
                           ("ambient-disk", self._disk_loop),
                           ("ambient-mem", self._memory_loop)):
            proc = self._loops.get(name)
            if proc is None or not proc.is_alive:
                self._loops[name] = self.node.spawn(loop(), name=name)
        return self

    def stop(self) -> None:
        self.running = False

    def _cpu_loop(self):
        env = self.node.env
        while self.running:
            gap = self._rng.exponential(4.0 / self.intensity)
            yield env.timeout(max(0.05, gap))
            burst = self._rng.uniform(0.05, 0.4) * self.intensity
            yield self.node.cpu.execute(burst, name="ambient")

    def _disk_loop(self):
        env = self.node.env
        while self.running:
            gap = self._rng.exponential(6.0 / self.intensity)
            yield env.timeout(max(0.1, gap))
            size = self._rng.uniform(KB(4), KB(64))
            yield self.node.disk.write(size * self.intensity)

    def _memory_loop(self):
        env = self.node.env
        live = []
        while self.running:
            gap = self._rng.exponential(8.0 / self.intensity)
            yield env.timeout(max(0.1, gap))
            if live and self._rng.random() < 0.5:
                live.pop(self._rng.integers(len(live))).free()
            else:
                size = self._rng.uniform(MB(0.5), MB(4))
                size *= self.intensity
                if size < self.node.memory.free_bytes * 0.5:
                    live.append(self.node.memory.allocate(
                        size, tag="ambient"))
