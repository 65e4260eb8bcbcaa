"""PROC_MON: per-process resource sampling (the keyed firehose).

The paper's modules report one value per metric; per-process monitoring
is different in kind — a *table* of (pid, cpu, mem, io) rows whose size
tracks the workload, not the metric namespace.  PROC_MON publishes that
table as d-mon's **keyed stream**: sketch filters (count-min + top-K)
can compress it at the source, or, unfiltered, the whole table rides
along with the poll's event.

Two row sources are merged each poll:

* **real jobs** — a snapshot of the sim CPU's processor-sharing job
  table (``CPU.process_table()``), so top-K rankings respond to actual
  simulated load;
* **synthetic daemons** — a fixed-size population of background
  processes with a Zipf-like CPU profile, deterministically wobbled by
  integer hashing of ``(node name, pid, poll epoch)``.  No draws are
  taken from the node's RNG stream, so adding this module never
  perturbs the simulation's event sequence (goldens without it stay
  bit-identical).

Sampling walks the task list, so each collected row charges
``costs.proc_sample`` kernel CPU — visible monitoring perturbation,
exactly the overhead the top-K ablation benchmark measures.
"""

from __future__ import annotations

from repro.dproc.metrics import MetricId
from repro.dproc.modules.base import KeyedSample, MonitoringModule
from repro.ecode.sketches import mix64
from repro.errors import DprocError
from repro.runtime.protocol import RuntimeNode
from repro.units import PAGE_SIZE

__all__ = ["ProcMon"]

#: Synthetic daemon PIDs start here; real sim jobs are offset higher so
#: the two populations never collide.
_DAEMON_PID_BASE = 1000
_JOB_PID_BASE = 100000

_PHI = 0x9E3779B97F4A7C15
_EPOCH_SALT = 0xD1B54A32D192ED03


def _crc_seed(name: str) -> int:
    """Stable per-node seed from the node name (no RNG draws)."""
    seed = 0
    for byte in name.encode("utf-8"):
        seed = mix64(seed * 131 + byte)
    return seed


class ProcMon(MonitoringModule):
    """Per-PID process-table sampler for the sim backend."""

    name = "proc"
    provides_keyed = True

    #: Default synthetic daemon population per node.
    DEFAULT_N_PROCS = 16
    MAX_N_PROCS = 4096

    def __init__(self, node: RuntimeNode,
                 n_procs: int = DEFAULT_N_PROCS) -> None:
        super().__init__(node)
        self._configure_n_procs(n_procs)
        self._seed = _crc_seed(node.name)
        self._table: list[KeyedSample] = []
        self._table_at: float | None = None

    def _configure_n_procs(self, n_procs: float) -> None:
        count = int(n_procs)
        if not 0 <= count <= self.MAX_N_PROCS:
            raise DprocError(
                f"n_procs must be in [0, {self.MAX_N_PROCS}], "
                f"got {n_procs!r}")
        self.n_procs = count

    # -- module protocol ---------------------------------------------------

    def metrics(self) -> tuple[MetricId, ...]:
        return (MetricId.PROC_COUNT, MetricId.PROC_CPU_MAX,
                MetricId.PROC_RSS_MAX)

    def configure(self, key: str, value: float) -> None:
        """``nprocs`` resizes the synthetic daemon population."""
        if key != "nprocs":
            super().configure(key, value)
        self._configure_n_procs(value)

    def collect(self, now: float) -> list[float]:
        table = self._sample(now)
        return [float(len(table)),
                max((row[1] for row in table), default=0.0),
                max((row[2] for row in table), default=0.0)]

    def keyed_collect(self, now: float) -> list[KeyedSample]:
        return self._sample(now)

    # -- internals ------------------------------------------------------------

    def _sample(self, now: float) -> list[KeyedSample]:
        """Build (and memoise per poll instant) the process table."""
        if self._table_at == now:
            return self._table
        table = self._synthetic(now)
        cpu = getattr(self.node, "cpu", None)
        if cpu is not None:
            share_unit = 1.0
            for jid, _name, runnable, share in cpu.process_table():
                if runnable:
                    table.append((_JOB_PID_BASE + jid,
                                  share * share_unit, 0.0, 0.0))
        self._table = table
        self._table_at = now
        return table

    def _synthetic(self, now: float) -> list[KeyedSample]:
        epoch = int(now)
        rows: list[KeyedSample] = []
        for i in range(self.n_procs):
            pid = _DAEMON_PID_BASE + i
            h = mix64(self._seed
                      ^ (pid * _PHI) & ((1 << 64) - 1)
                      ^ (epoch * _EPOCH_SALT) & ((1 << 64) - 1))
            # Zipf-like CPU profile with a ±50% deterministic wobble:
            # daemon i draws ~1/(i+1) of a baseline share.
            wobble = 0.5 + (h & 0xFFFF) / 0xFFFF
            cpu_share = 0.2 * wobble / (i + 1)
            rss = float(((h >> 16) & 0x3FF) + 64) * PAGE_SIZE
            io = float((h >> 26) & 0xFFFF)
            rows.append((pid, cpu_share, rss, io))
        return rows
