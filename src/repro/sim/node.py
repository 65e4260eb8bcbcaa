"""A cluster node: CPUs, memory, disk, NIC and kernel cost accounting.

Every node charges its kernel work by the one global cost model,
:data:`repro.runtime.costs.KERNEL_COSTS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.errors import SimulationError
from repro.runtime.costs import KERNEL_COSTS, KernelCostModel
from repro.runtime.rng import Pcg64Stream
from repro.sim.core import Environment, Process, SimEvent
from repro.sim.cpu import CPU
from repro.sim.disk import Disk
from repro.sim.memory import Memory
from repro.sim.network import Fabric
from repro.sim.transport import NetStack
from repro.telemetry import TelemetryRegistry
from repro.units import MB

__all__ = ["NodeConfig", "Node"]


@dataclass(frozen=True)
class NodeConfig:
    """Static hardware description of a node.

    The defaults model the paper's testbed machines for the purpose of
    *contention*: linpack is single-threaded, so kernel monitoring work
    steals cycles from the one CPU it runs on — a single-CPU
    processor-sharing model captures that directly (documented
    substitution; see DESIGN.md §5).
    """

    n_cpus: int = 1
    mflops_per_cpu: float = 17.4
    memory_bytes: float = MB(512)
    disk_rate: float = MB(20)


class Node:
    """A simulated cluster machine."""

    def __init__(self, env: Environment, name: str, fabric: Fabric,
                 rng: Pcg64Stream,
                 config: NodeConfig | None = None,
                 segment: Any = None) -> None:
        self.env = env
        self.name = name
        self.config = config or NodeConfig()
        self.rng = rng
        self.telemetry = TelemetryRegistry(scope=name)
        self.cpu = CPU(env, n_cpus=self.config.n_cpus,
                       mflops_per_cpu=self.config.mflops_per_cpu)
        self.memory = Memory(env, capacity_bytes=self.config.memory_bytes)
        self.disk = Disk(env, transfer_rate=self.config.disk_rate)
        self.port = fabric.add_host(name, segment=segment)
        self.stack = NetStack(
            env, name, fabric, rng,
            kernel_charge=self.charge_kernel_seconds,
            receive_cost=KERNEL_COSTS.receive_cost,
            telemetry=self.telemetry)
        #: Attached subsystems (dproc toolkit, applications) by name.
        self.services: dict[str, Any] = {}

    # -- helpers ---------------------------------------------------------------

    @property
    def costs(self) -> KernelCostModel:
        return KERNEL_COSTS

    def charge_kernel_seconds(self, seconds: float) -> None:
        """Consume ``seconds`` of one-CPU kernel time (asynchronously).

        The work is submitted to the processor-sharing CPU, so it
        contends with (and perturbs) application jobs — this is the
        mechanism behind the paper's perturbation measurements.
        Nobody awaits a charge, so it schedules no completion event.
        """
        if seconds < 0:
            raise SimulationError("cannot charge negative time")
        self.cpu.kernel_work(seconds * self.config.mflops_per_cpu,
                             name="kernel")

    def spawn(self, generator: Generator[SimEvent, Any, Any],
              name: str | None = None) -> Process:
        """Start a process logically running on this node."""
        label = f"{self.name}:{name or 'proc'}"
        return self.env.process(generator, name=label)

    def attach_service(self, key: str, service: Any) -> None:
        if key in self.services:
            raise SimulationError(
                f"service {key!r} already attached to {self.name}")
        self.services[key] = service

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} cpus={self.config.n_cpus}>"
