"""The Dproc toolkit facade: one object per node, /proc included.

This is the user-visible surface of the reproduction: read remote
resource data through the familiar /proc hierarchy and customize
monitoring by writing to control files — exactly the workflow of the
paper's §2.  A run's instances are built by
:class:`repro.api.Scenario` (through
:meth:`repro.runtime.deployment.Deployment.deploy`)::

    sc = Scenario(nodes=3).run(5.0)
    loadavg = sc.dprocs["alan"].read("/proc/cluster/maui/loadavg")
    sc.dprocs["alan"].write("/proc/cluster/maui/control",
                            "period cpu 2\\nthreshold cpu above 0.8")
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Optional, Sequence

from repro.dproc.control_api import ControlRequest
from repro.dproc.control_file import parse_control_text
from repro.dproc.dmon import DMon, DMonConfig
from repro.dproc.metrics import METRIC_FILES, MetricId
from repro.dproc.modules import DEFAULT_MODULES, sim_module_factory
from repro.dproc.procfs import DirTemplate, ProcFS, ProcFile, Roster
from repro.kecho import ControlMessage
from repro.runtime.protocol import Bus, RuntimeNode
from repro.telemetry import MONITOR_CPU_COUNTERS, render_text

__all__ = ["Dproc"]

#: Accepted command lines a ``control`` file reads back, per host; a
#: policy that rewrites ``control`` every tick drops the oldest.
CONTROL_LOG_LINES = 256

#: Builds one monitoring module for (module name, node): each runtime
#: has one, the simulator's is the default.
ModuleFactory = Callable[[str, RuntimeNode], object]


class Dproc:
    """Per-node dproc instance: d-mon + the /proc view."""

    def __init__(self, node: RuntimeNode, bus: Bus,
                 config: DMonConfig | None = None,
                 modules: Sequence[str] = DEFAULT_MODULES,
                 module_factory: ModuleFactory = sim_module_factory,
                 roster: Optional[Roster] = None) -> None:
        self.node = node
        self.bus = bus
        self.dmon = DMon(node, bus, config)
        for name in modules:
            self.dmon.register_service(module_factory(name, node))
        self.procfs = ProcFS()
        self._control_log: dict[str, deque[str]] = {}
        #: The hosts under /proc/cluster.  ``Deployment.deploy`` hands
        #: every instance the same roster, so a join shows on all.
        self.roster = Roster() if roster is None else roster
        self._mount_standard()
        self.procfs.mount_dir("/proc/cluster", HOST_DIR, self.roster, self)
        node.attach_service("dproc", self)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Start d-mon (channels, modules, polling)."""
        self.dmon.start()

    def stop(self) -> None:
        self.dmon.stop()

    # -- the /proc interface -----------------------------------------------------

    def read(self, path: str) -> str:
        """Read a pseudo-file (e.g. ``/proc/cluster/maui/loadavg``)."""
        return self.procfs.read(path)

    def write(self, path: str, text) -> None:
        """Write to a pseudo-file (only ``control`` files accept writes).

        ``text`` is the raw string to write, or a
        :class:`~repro.dproc.control_api.ControlRequest` which is
        rendered to the control-file grammar first.
        """
        if isinstance(text, ControlRequest):
            text = text.render()
        self.procfs.write(path, text)

    def listdir(self, path: str) -> list[str]:
        return self.procfs.listdir(path)

    def add_cluster_node(self, host: str) -> None:
        """Expose ``/proc/cluster/<host>/`` for a (possibly remote) node
        on every instance sharing this roster."""
        self.roster.add(host)

    def hosts(self) -> tuple[str, ...]:
        """Nodes visible under /proc/cluster, sorted."""
        return self.roster.names

    # -- convenience accessors -----------------------------------------------------

    def metric(self, host: str, metric: MetricId) -> float:
        """Numeric value of a metric for ``host`` (NaN until known)."""
        if host == self.node.name:
            return self.dmon.last_samples.get(metric, math.nan)
        remote = self.dmon.remote_value(host, metric)
        return remote.value if remote is not None else math.nan

    def loadavg(self, host: str) -> float:
        return self.metric(host, MetricId.LOADAVG)

    # -- internals ------------------------------------------------------------

    def _mount_standard(self) -> None:
        # The stock /proc/loadavg with 1/5/15-minute averages.
        def read_loadavg() -> str:
            one, five, fifteen = self.node.cpu.load_averages()
            return f"{one:.2f} {five:.2f} {fifteen:.2f}\n"

        self.procfs.mount("/proc/loadavg", ProcFile(read_loadavg))

        def read_meminfo() -> str:
            mem = self.node.memory
            return (f"MemTotal: {int(mem.capacity_bytes / 1024)} kB\n"
                    f"MemFree:  {int(mem.free_bytes / 1024)} kB\n")

        self.procfs.mount("/proc/meminfo", ProcFile(read_meminfo))

    def _status_read(self, host: str) -> str:
        """``/proc/cluster/<host>/status``: liveness state and data age."""
        state = self.dmon.peer_state(host)
        age = self.dmon.peer_age(host)
        age_text = "inf" if math.isinf(age) else f"{age:.3f}"
        return f"state: {state}\nage: {age_text}\n"

    def _proc_top_read(self, host: str) -> str:
        """``/proc/cluster/<host>/proc_top``: per-process summary.

        ``kind: top`` rows are ``pid weight`` (sketch-ranked, heaviest
        first); ``kind: full`` rows are ``pid cpu mem io`` — whatever
        the host's keyed stream last published.  ``kind: none`` until
        anything is heard.
        """
        if host == self.node.name:
            published = self.dmon.last_procs
            if published is None:
                return "kind: none\n"
            kind, rows = published
        else:
            received = self.dmon.remote_procs.get(host)
            if received is None:
                return "kind: none\n"
            kind, rows = received
        lines = [f"kind: {kind}"]
        if kind == "top":
            ranked = sorted(rows.items(), key=lambda p: (-p[1], p[0]))
            lines += [f"{pid} {weight:.6g}" for pid, weight in ranked]
        else:
            for pid in sorted(rows):
                cpu, mem, io = rows[pid]
                lines.append(f"{pid} {cpu:.6g} {mem:.6g} {io:.6g}")
        return "".join(f"{line}\n" for line in lines)

    def _overhead_read(self, host: str) -> str:
        """``/proc/cluster/<host>/dproc/overhead``: monitoring cost.

        The local file is computed from the node's live telemetry
        registry; a remote host's file shows the last SELF_MON report
        received from it (NaN until that host publishes one).
        """
        if host == self.node.name:
            reg = self.node.telemetry
            polls = reg.value("dmon.polls")
            components = {name.split(".", 1)[1]: reg.value(name)
                          for name in MONITOR_CPU_COUNTERS}
            total = sum(components.values())
            rows = {"polls": polls, "monitor_cpu_seconds": total,
                    **components,
                    "mean_poll_cost": total / polls if polls else 0.0,
                    **{name: reg.value(f"dmon.{name}") for name in
                       ("events_published", "records_published")}}
        else:
            rows = {key: self.metric(host, metric) for key, metric in (
                ("poll_cost", MetricId.DMON_POLL_COST),
                ("rx_cost", MetricId.DMON_RX_COST),
                ("event_rate", MetricId.DMON_EVENT_RATE))}
        return "".join(f"{key}: {value:.6g}\n"
                       for key, value in rows.items())

    def _telemetry_read(self, host: str, prefix: str) -> str:
        """Raw telemetry dump for one name prefix (local host only)."""
        if host == self.node.name:
            return render_text(self.node.telemetry, prefix=prefix)
        return (f"unavailable: {prefix}* telemetry is node-local; "
                f"see dproc/overhead\n")

    def _control_read(self, host: str) -> str:
        """Control files read back the accepted command log."""
        log = self._control_log.get(host, ())
        return "".join(f"{line}\n" for line in log)

    def _control_write(self, host: str, text: str) -> None:
        """Parse commands and distribute them via the control channel:
        one message per command, carrying its normalized text.  Each
        command is logged once it is sent, so after a command this
        host refuses the log holds exactly the ones that went out."""
        log = self._control_log.get(host)
        if log is None:
            log = self._control_log[host] = deque(maxlen=CONTROL_LOG_LINES)
        for command in parse_control_text(text):
            self.dmon.send_control(ControlMessage(host, command.text))
            log.extend(line for line in command.text.splitlines()
                       if line.strip())


#: The layout of every ``/proc/cluster/<host>/``, built once; its
#: callbacks take ``(dproc, host)``: the mount's context and the name.
HOST_DIR = DirTemplate({
    **{fname: ProcFile(lambda dproc, host, metric=metric:
                       f"{dproc.metric(host, metric):.6g}\n")
       for metric, fname in METRIC_FILES.items()},
    "control": ProcFile(Dproc._control_read, Dproc._control_write),
    "status": ProcFile(Dproc._status_read),
    # Per-process summary (the keyed stream): the local node shows
    # what it last published, remote hosts what was last received.
    "proc_top": ProcFile(Dproc._proc_top_read),
    # Self-telemetry, dogfooded through /proc: dproc reporting on
    # dproc.  The local node renders its live registry; remote
    # hosts render whatever their SELF_MON module published.
    "dproc/overhead": ProcFile(Dproc._overhead_read),
    "dproc/channels": ProcFile(
        lambda dproc, host: dproc._telemetry_read(host, "kecho.")),
    "dproc/dmon": ProcFile(
        lambda dproc, host: dproc._telemetry_read(host, "dmon.")),
})

