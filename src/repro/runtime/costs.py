"""The kernel cost model: what protocol activity costs in CPU time.

:class:`KernelCostModel` centralises every calibration constant that
turns protocol activity into CPU time.  These constants are **global**
(never tuned per experiment); they were fitted once against the paper's
measured overheads (Figures 6–8, see EXPERIMENTS.md) and then reused by
all benchmarks.  Simulated nodes charge by it; live nodes account by it,
so the telemetry and overhead reports of both backends compare.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import usec

__all__ = ["KernelCostModel", "KERNEL_COSTS"]


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
