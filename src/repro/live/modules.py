"""Host-backed monitoring modules for the live backend.

Each module has the *same* name and produces the *same*
:class:`~repro.dproc.metrics.MetricId` set as its simulator
counterpart (``MODULE_METRICS`` is the shared contract, asserted by
the cross-backend conformance suite), but samples the real host
instead of simulated devices.  Each poll reads only the counters it
reports, from the cheapest source that gives the same number:

* ``cpu``: ``os.getloadavg()`` (through the node's ``cpu`` view);
* ``mem``: ``sysinfo(2)`` via ``sysconf``'s ``SC_AVPHYS_PAGES``
  (through the node's ``memory`` view) — ``/proc/meminfo``'s
  ``MemFree``;
* ``disk``: ``/sys/block/<dev>/stat`` of each hardware-backed whole
  device — the counters of its ``/proc/diskstats`` row;
* ``net``: ``/proc/net/dev`` (transmitted bytes) and
  ``/proc/net/snmp`` (TCP ``RetransSegs``).

``sysinfo`` and ``/sys/block`` are not what LXCFS virtualises: in a
container whose ``/proc`` is so virtualised, ``mem`` and ``disk``
report the host's counters, not the container's.  Values that the
host cannot provide without privileged counters (hardware PMCs,
per-connection RTT) are reported as 0.0 — present in the schema,
honest about the source.

All host reads are guarded: on a platform without them the modules
report zeros rather than fail, so the live smoke test runs anywhere
asyncio does.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.dproc.metrics import MODULE_METRICS, MetricId
from repro.dproc.modules.base import KeyedSample, MonitoringModule
from repro.dproc.modules.self_mon import SelfMon
from repro.errors import DprocError
from repro.live.node import _read_proc
from repro.runtime.protocol import RuntimeNode

__all__ = ["HostCpuMon", "HostMemMon", "HostDiskMon", "HostNetMon",
           "HostPmcMon", "HostProcMon", "host_module_factory",
           "HOST_MODULES"]

#: Nominal NIC capacity for available-bandwidth reporting (100 Mbps,
#: the paper's fabric) when the host interface speed is unknowable.
NOMINAL_BANDWIDTH = 100e6 / 8.0


def _read_once(path: str) -> str:
    """Text of a per-PID file: the set is unbounded, so no descriptor
    is held."""
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError:
        return ""


def _whole_devices() -> frozenset[str]:
    """Names of the hardware-backed block devices: the ``/sys/block``
    entries with a ``device`` link (``sda``, ``nvme0n1``, ``mmcblk0``,
    ``vda``; not ``loop0``, ``dm-0``, ``zram0``, and never a
    partition).  Empty when ``/sys/block`` cannot be listed."""
    try:
        return frozenset(
            name for name in os.listdir("/sys/block")
            if os.path.exists(f"/sys/block/{name}/device"))
    except OSError:
        return frozenset()


class _RateTracker:
    """Turns a cumulative host counter into a per-second rate."""

    __slots__ = ("_last_t", "_last_v")

    def __init__(self) -> None:
        self._last_t: Optional[float] = None
        self._last_v = 0.0

    def rate(self, now: float, value: float) -> float:
        last_t, last_v = self._last_t, self._last_v
        self._last_t, self._last_v = now, value
        if last_t is None or now <= last_t or value < last_v:
            return 0.0
        return (value - last_v) / (now - last_t)


class HostCpuMon(MonitoringModule):
    """LOADAVG from the host's 1-minute load average."""

    name = "cpu"

    def metrics(self) -> tuple[MetricId, ...]:
        return MODULE_METRICS["cpu"]

    def collect(self, now: float) -> list[float]:
        return [self.node.cpu.load_averages()[0]]


class HostMemMon(MonitoringModule):
    """FREEMEM from ``sysinfo(2)``, through the node's memory view."""

    name = "mem"

    def metrics(self) -> tuple[MetricId, ...]:
        return MODULE_METRICS["mem"]

    def collect(self, now: float) -> list[float]:
        return [self.node.memory.free_bytes]


class HostDiskMon(MonitoringModule):
    """Sector and op rates summed over the whole hardware devices'
    ``/sys/block/<dev>/stat``: partitions and stacked devices would
    double-count."""

    name = "disk"

    def __init__(self, node: RuntimeNode) -> None:
        super().__init__(node)
        self._sectors = _RateTracker()
        self._reads = _RateTracker()
        self._writes = _RateTracker()
        self._stat_paths = tuple(f"/sys/block/{name}/stat"
                                 for name in sorted(_whole_devices()))

    def metrics(self) -> tuple[MetricId, ...]:
        return MODULE_METRICS["disk"]

    def _totals(self) -> tuple[float, float, float]:
        """``(sectors, reads, writes)`` since boot over the device set.

        Fields 0, 2, 4 and 6 of a stat file are read I/Os, read
        sectors, write I/Os and written sectors: ``/proc/diskstats``
        columns 4, 6, 8 and 10 of the same device.  A short or
        unreadable file counts nothing.
        """
        reads = writes = sectors = 0.0
        for path in self._stat_paths:
            fields = _read_proc(path).split(None, 7)
            if len(fields) < 7:
                continue
            try:
                r, r_sect, w, w_sect = (float(fields[0]), float(fields[2]),
                                        float(fields[4]), float(fields[6]))
            except ValueError:  # pragma: no cover - malformed sysfs
                continue
            reads += r
            writes += w
            sectors += r_sect + w_sect
        return sectors, reads, writes

    def collect(self, now: float) -> list[float]:
        sectors, reads, writes = self._totals()
        return [self._sectors.rate(now, sectors),
                self._reads.rate(now, reads),
                self._writes.rate(now, writes)]


class HostNetMon(MonitoringModule):
    """Interface byte/retransmission rates from ``/proc/net``."""

    name = "net"

    def __init__(self, node: RuntimeNode) -> None:
        super().__init__(node)
        self._tx = _RateTracker()
        self._retx = _RateTracker()

    def metrics(self) -> tuple[MetricId, ...]:
        return MODULE_METRICS["net"]

    @staticmethod
    def _tx_bytes() -> float:
        """Transmitted bytes over every interface but ``lo``: field 8
        of each ``/proc/net/dev`` row after the two header lines."""
        total = 0.0
        for line in _read_proc("/proc/net/dev").splitlines()[2:]:
            name, colon, rest = line.partition(":")
            if not colon or name.strip() == "lo":
                continue
            fields = rest.split(None, 9)
            if len(fields) >= 9:
                try:
                    total += float(fields[8])
                except ValueError:  # pragma: no cover
                    continue
        return total

    @staticmethod
    def _retransmissions() -> float:
        """``RetransSegs`` from the ``Tcp:`` header/value line pair of
        ``/proc/net/snmp``."""
        text = _read_proc("/proc/net/snmp")
        head = text.find("Tcp:")
        if head < 0:
            return 0.0
        body = text.find("\nTcp:", head) + 1
        if body <= 0:
            return 0.0
        end = text.find("\n", body)
        keys = text[head:body].split()
        values = text[body:end if end >= 0 else len(text)].split()
        try:
            return float(values[keys.index("RetransSegs")])
        except (IndexError, ValueError):
            return 0.0

    def collect(self, now: float) -> list[float]:
        used = self._tx.rate(now, self._tx_bytes())
        retx = self._retx.rate(now, self._retransmissions())
        available = max(0.0, NOMINAL_BANDWIDTH - used)
        return [available, 0.0, retx, 0.0, used, 0.0]


class HostPmcMon(MonitoringModule):
    """PMC stand-in: hardware counters need perf privileges, so both
    metrics report 0.0 (schema-present, value-honest)."""

    name = "pmc"

    def metrics(self) -> tuple[MetricId, ...]:
        return MODULE_METRICS["pmc"]

    def collect(self, now: float) -> list[float]:
        return [0.0, 0.0]


class HostProcMon(MonitoringModule):
    """Per-PID table from real ``/proc/<pid>/stat`` (the keyed stream).

    Rows are ``(pid, cpu_share, rss_bytes, io_bytes_per_s)``; CPU is a
    per-PID utime+stime rate over the poll interval (share of one
    core), I/O comes from ``/proc/<pid>/io`` where readable.  The scan
    is bounded to :attr:`MAX_PIDS` processes (ascending PID order) so
    a busy host cannot blow up the poll.
    """

    name = "proc"
    provides_keyed = True

    MAX_PIDS = 512

    def __init__(self, node: RuntimeNode) -> None:
        super().__init__(node)
        self._cpu: dict[int, _RateTracker] = {}
        self._io: dict[int, _RateTracker] = {}
        try:
            self._hz = float(os.sysconf("SC_CLK_TCK"))
        except (OSError, ValueError, AttributeError):  # pragma: no cover
            self._hz = 100.0
        try:
            self._page = float(os.sysconf("SC_PAGE_SIZE"))
        except (OSError, ValueError, AttributeError):  # pragma: no cover
            self._page = 4096.0
        self._table: list[KeyedSample] = []
        self._table_at: Optional[float] = None

    def metrics(self) -> tuple[MetricId, ...]:
        return MODULE_METRICS["proc"]

    def collect(self, now: float) -> list[float]:
        table = self._sample(now)
        return [float(len(table)),
                max((r[1] for r in table), default=0.0),
                max((r[2] for r in table), default=0.0)]

    def keyed_collect(self, now: float) -> list[KeyedSample]:
        return self._sample(now)

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _pids() -> list[int]:
        try:
            entries = os.listdir("/proc")
        except OSError:  # pragma: no cover - no procfs
            return []
        return sorted(int(e) for e in entries if e.isdigit())

    def _sample(self, now: float) -> list[KeyedSample]:
        if self._table_at == now:
            return self._table
        rows: list[KeyedSample] = []
        live: set[int] = set()
        for pid in self._pids()[:self.MAX_PIDS]:
            stat = _read_once(f"/proc/{pid}/stat")
            if not stat:
                continue  # process exited mid-scan
            # Fields after the parenthesised comm (which may contain
            # spaces): utime/stime are fields 14/15, rss field 24
            # (1-based), i.e. 11/12/21 relative to the tail.
            _, _, tail = stat.rpartition(")")
            fields = tail.split()
            if len(fields) < 22:
                continue
            try:
                jiffies = float(fields[11]) + float(fields[12])
                rss = float(fields[21]) * self._page
            except ValueError:  # pragma: no cover - malformed stat
                continue
            live.add(pid)
            tracker = self._cpu.setdefault(pid, _RateTracker())
            cpu_share = tracker.rate(now, jiffies / self._hz)
            io_rate = 0.0
            io_text = _read_once(f"/proc/{pid}/io")
            if io_text:
                total_bytes = 0.0
                for line in io_text.splitlines():
                    if line.startswith(("read_bytes:", "write_bytes:")):
                        try:
                            total_bytes += float(line.split()[1])
                        except (IndexError, ValueError):  # pragma: no cover
                            pass
                io_rate = self._io.setdefault(
                    pid, _RateTracker()).rate(now, total_bytes)
            rows.append((pid, cpu_share, rss, io_rate))
        # Drop trackers for exited PIDs so the maps stay bounded.
        for stale in set(self._cpu) - live:
            self._cpu.pop(stale, None)
            self._io.pop(stale, None)
        self._table = rows
        self._table_at = now
        return rows


#: module name -> host-backed class (SELF_MON is backend-neutral:
#: it reads the node's telemetry registry, which LiveNode provides).
HOST_MODULES = {
    "cpu": HostCpuMon,
    "mem": HostMemMon,
    "disk": HostDiskMon,
    "net": HostNetMon,
    "pmc": HostPmcMon,
    "proc": HostProcMon,
    "dproc": SelfMon,
}


def host_module_factory(name: str, node: RuntimeNode):
    """The live backend's ``module_factory`` for ``Dproc``: one host
    module by its standard name."""
    try:
        cls = HOST_MODULES[name]
    except KeyError:
        raise DprocError(f"no host module named {name!r}") from None
    return cls(node)
