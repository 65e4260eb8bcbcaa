"""Iperf-like bandwidth measurement and perturbation tool.

Two modes, matching the paper's two uses:

* **measure** (:class:`IperfMeasure`, Figure 5) — a greedy UDP sender
  whose pacing is CPU-bound, like real iperf pushing ~96 Mbps on a
  Pentium Pro: every chunk costs kernel+user CPU to produce, then is
  fired into the network without waiting.  Achieved bandwidth therefore
  drops when monitoring steals cycles on either endpoint.
* **perturb** (:class:`IperfPerturb`, Figures 10-11) — a paced
  open-loop UDP flood at a configured rate, used purely to take
  bandwidth away from a link ("generating continuous streams of UDP
  packets").
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.network import FixedFlowHandle
from repro.sim.node import Node
from repro.runtime.series import MEASUREMENT_HISTORY, CounterTrace
from repro.sim.transport import Protocol
from repro.units import KB, mbps, to_mbps

__all__ = ["IperfMeasure", "IperfPerturb"]

#: Chunk size for the CPU-paced sender.
CHUNK_BYTES = KB(64)

#: CPU-limited peak send rate (bytes/s): real iperf on the paper's
#: hardware tops out just under the 100 Mbps wire rate.
CPU_LIMITED_RATE = mbps(96.5)


class IperfMeasure:
    """Greedy, CPU-paced UDP throughput measurement between two nodes."""

    def __init__(self, sender: Node, receiver: Node) -> None:
        if sender is receiver:
            raise SimulationError("iperf needs two distinct nodes")
        self.sender = sender
        self.receiver = receiver
        self.running = False
        self.received = CounterTrace(MEASUREMENT_HISTORY)
        self.started_at: float | None = None
        self._conn = sender.stack.connect(receiver.name,
                                          tag="iperf-data",
                                          proto=Protocol.UDP)
        receiver.stack.bind("iperf-data", self._on_chunk)
        # Mflop of user CPU per chunk such that an otherwise idle
        # single-CPU node paces at CPU_LIMITED_RATE.
        seconds_per_chunk = CHUNK_BYTES / CPU_LIMITED_RATE
        self._work_per_chunk = seconds_per_chunk \
            * sender.config.mflops_per_cpu

    def start(self) -> "IperfMeasure":
        if self.running:
            raise SimulationError("iperf already running")
        self.running = True
        self.started_at = self.sender.env.now
        self.sender.spawn(self._send_loop(), name="iperf-send")
        return self

    def stop(self) -> None:
        self.running = False

    def _send_loop(self):
        while self.running:
            # Produce the chunk (CPU-bound), then fire and forget.
            yield self.sender.cpu.execute(self._work_per_chunk,
                                          name="iperf")
            try:
                self._conn.send(None, size=CHUNK_BYTES)
            except Exception:
                pass  # UDP: losses already counted by the connection

    def _on_chunk(self, msg) -> None:
        self.received.add(self.receiver.env.now, msg.size)

    # -- results ---------------------------------------------------------------

    def bandwidth_mbps(self, since: float | None = None,
                       until: float | None = None) -> float:
        """Measured received throughput in Mbps over a window."""
        if self.started_at is None:
            raise SimulationError("iperf never started")
        t0 = self.started_at if since is None else since
        t1 = self.sender.env.now if until is None else until
        if t1 <= t0:
            raise SimulationError("empty measurement window")
        return to_mbps(self.received.count_between(t0, t1) / (t1 - t0))


class IperfPerturb:
    """Open-loop UDP flood at a fixed offered rate (perturbation)."""

    def __init__(self, sender: Node, receiver: Node,
                 rate_mbps: float) -> None:
        if rate_mbps <= 0:
            raise SimulationError("perturbation rate must be positive")
        self.sender = sender
        self.receiver = receiver
        self.rate_mbps = float(rate_mbps)
        self._handle: FixedFlowHandle | None = None

    @property
    def running(self) -> bool:
        return self._handle is not None and not self._handle.closed

    def start(self) -> "IperfPerturb":
        if self.running:
            raise SimulationError("perturbation already running")
        fabric = self.sender.stack.fabric
        self._handle = fabric.open_fixed_flow(
            self.sender.name, self.receiver.name, mbps(self.rate_mbps),
            name=f"iperf-perturb:{self.rate_mbps:g}Mbps")
        return self

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.close()

    @property
    def achieved_mbps(self) -> float:
        """Rate the network is actually carrying."""
        if self._handle is None:
            return 0.0
        return to_mbps(self._handle.rate)
