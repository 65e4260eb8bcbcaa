"""A cluster node: CPUs, memory, disk, NIC and kernel cost accounting.

The :class:`KernelCostModel` centralises every calibration constant that
turns protocol activity into CPU time.  These constants are **global**
(never tuned per experiment); they were fitted once against the paper's
measured overheads (Figures 6–8, see EXPERIMENTS.md) and then reused by
all benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from repro.errors import SimulationError
from repro.sim.core import Environment, Process, SimEvent
from repro.sim.cpu import CPU
from repro.sim.disk import Disk
from repro.sim.memory import Memory
from repro.sim.network import Fabric
from repro.sim.transport import NetStack
from repro.telemetry import TelemetryRegistry
from repro.units import MB, usec

__all__ = ["KernelCostModel", "KERNEL_COSTS", "NodeConfig", "Node"]


@dataclass(frozen=True)
class KernelCostModel:
    """CPU costs (seconds) of kernel-level messaging and monitoring.

    Calibration targets (paper, 8-node cluster of 200 MHz Pentium Pros):

    * Fig 6 — submitting one ~75 B monitoring event to 7 subscribers
      costs ≈ 1.8 ms  →  ``encode + 7·send(75 B)``.
    * Fig 7 — the same with 5 KB events costs ≈ 4.8 ms.
    * Fig 8 — handling 7 incoming events per polling iteration costs
      ≈ 2.2 ms  →  ``7·receive(75 B)``.
    """

    #: Event serialisation: fixed + per-byte cost (PBIO-style encode).
    encode_base: float = usec(20)
    encode_per_byte: float = usec(0.07)
    #: Per-subscriber kernel socket send: fixed + per-byte.
    send_base: float = usec(239)
    send_per_byte: float = usec(0.0743)
    #: Per-event receive-path handling (softirq + handler dispatch).
    receive_base: float = usec(300)
    receive_per_byte: float = usec(0.012)
    #: Executing one compiled E-code filter over one event.
    filter_exec: float = usec(18)
    #: Evaluating one parameter rule (threshold / period check).
    param_check: float = usec(2)
    #: Dynamically compiling an E-code filter string (one-off).
    filter_compile: float = usec(1500)
    #: Polling one registered monitoring module's callback.
    module_poll: float = usec(25)
    #: CPU_MON kernel thread: one walk of the task list.
    tasklist_walk: float = usec(40)
    #: PROC_MON: sampling one process-table row (per-PID stat read).
    proc_sample: float = usec(1)

    def encode_cost(self, size: float) -> float:
        """CPU seconds to serialise an event of ``size`` bytes."""
        return self.encode_base + self.encode_per_byte * size

    def send_cost(self, size: float, n_subscribers: int) -> float:
        """CPU seconds to push one event to ``n_subscribers`` sockets."""
        return n_subscribers * (self.send_base + self.send_per_byte * size)

    def receive_cost(self, size: float) -> float:
        """CPU seconds to receive and dispatch one incoming event."""
        return self.receive_base + self.receive_per_byte * size


#: The one cost model every node, simulated or live, charges by.
KERNEL_COSTS = KernelCostModel()


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
                 rng: np.random.Generator,
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
