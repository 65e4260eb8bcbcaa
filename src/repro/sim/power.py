"""Battery/power model for mobile nodes.

The paper's future work makes power "a first-class resource" for
wireless and mobile clients, and its extensibility section names
"monitoring of the current battery power in mobile devices" as the
canonical dynamically-deployed monitoring module.  This model provides
the substrate: an energy store drained by base load, CPU activity and
network traffic, with event-free lazy accounting (the level is computed
on demand from the simulator's ground-truth counters).
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.node import Node

__all__ = ["Battery"]


class Battery:
    """Energy store attached to one node.

    Draw model (joules):

    * ``base_power`` watts continuously (display, radios idle);
    * ``cpu_joules_per_second`` per busy CPU-second;
    * ``radio_joules_per_byte`` per byte sent or received.
    """

    def __init__(self, node: Node,
                 capacity_joules: float = 20_000.0,   # ~5.5 Wh handheld
                 base_power: float = 0.8,
                 cpu_joules_per_second: float = 6.0,
                 radio_joules_per_byte: float = 2e-6) -> None:
        if capacity_joules <= 0:
            raise SimulationError("battery capacity must be positive")
        if min(base_power, cpu_joules_per_second,
               radio_joules_per_byte) < 0:
            raise SimulationError("power draws cannot be negative")
        self.node = node
        self.capacity_joules = float(capacity_joules)
        self.base_power = float(base_power)
        self.cpu_joules_per_second = float(cpu_joules_per_second)
        self.radio_joules_per_byte = float(radio_joules_per_byte)
        self._attached_at = node.env.now
        self._cpu_mark = self._busy_seconds()
        self._bytes_mark = self._radio_bytes()
        self._drained_at_mark = 0.0
        node.attach_service("battery", self)

    # -- accounting ----------------------------------------------------------

    def _busy_seconds(self) -> float:
        self.node.cpu.settle()
        return self.node.cpu.busy_cpu_seconds

    def _radio_bytes(self) -> float:
        stack = self.node.stack
        return stack.bytes_received + stack.bytes_out.total

    def drained_joules(self) -> float:
        """Total energy consumed since attachment."""
        now = self.node.env.now
        elapsed = now - self._attached_at
        cpu_busy = self._busy_seconds() - self._cpu_mark
        radio = self._radio_bytes() - self._bytes_mark
        return (self._drained_at_mark
                + elapsed * self.base_power
                + cpu_busy * self.cpu_joules_per_second
                + radio * self.radio_joules_per_byte)

    def level_joules(self) -> float:
        """Remaining energy (clamped at zero)."""
        return max(0.0, self.capacity_joules - self.drained_joules())

    def level_percent(self) -> float:
        """Remaining charge as a percentage."""
        return 100.0 * self.level_joules() / self.capacity_joules

    @property
    def empty(self) -> bool:
        return self.level_joules() <= 0.0
