"""The five workloads and what one repeat of each measures.

Every workload drives the public API only (``build_cluster`` +
``Dproc`` + ``KechoBus`` on the simulator, ``Scenario`` on the live
backend).  A *record* is one ``(host, metric, value, ts)`` stored at a
subscriber, counted by a hook this file appends to each watcher's
``DMon.update_hooks``; ``ts`` is the collect timestamp, so
``clock.now - ts`` inside the hook is the collect -> visible latency.
One *operation* is one record due at one subscriber.

Why these five (the table in README.md says the same at more length):

* ``sim_all2all_n64`` is receive-dominated (63 deliveries per publish);
* ``sim_fanin_n1000`` is set-up- and timer-dominated (fan-out 8);
* ``live_all2all_n8`` is the paper's testbed on real sockets;
* ``live_pair_n2`` is the quiet path whose latency repeats;
* ``live_fanin_batch_n16`` takes the BATCH + control + E-code route
  through the same transport.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import resource
import statistics
from array import array
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Optional

__all__ = ["WORKLOADS", "Workload", "run_repeat", "HALVING_FILTER",
           "MONITOR_CHANNEL"]

#: Records collected before the cut-off count as failed when they have
#: not reached their subscriber this many seconds later.
QUIESCE = 0.5
#: Live only: the measured window opens this long after the clock
#: starts, so lazy TCP dials and first-poll code paths are outside it.
LEAD = 0.5
#: A run's budget is shared by three repeats whatever the pass, so an
#: untraced and a traced repeat always do the same amount of work.
SHARES = 3
#: The window is cut into this many slices; see ``_slice_costs``.
SLICES = 10
#: Size of the reference kernel, and the CPU seconds it takes on the
#: host the benchmark was defined on when that host is quiet.
REFERENCE_STEPS = 1500
REFERENCE_NOMINAL = 1.25e-3

MONITOR_CHANNEL = "dproc.monitor"

#: Shipped by watcher 0 to every publisher of ``live_fanin_batch_n16``.
HALVING_FILTER = """{
    output[0] = input[LOADAVG];
    output[0].value = input[LOADAVG].value * 0.5;
}"""


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    nodes: int
    #: Cluster size under ``--scale smoke``.
    smoke_nodes: int
    #: First k hosts subscribe; None = every node subscribes.
    watchers: Optional[int]
    poll: float
    #: Sim only: module set, published metrics, and simulated seconds
    #: per second of budget (probed so a repeat takes about its share).
    modules: tuple = ()
    metrics: tuple = ()
    sim_rate: float = 0.0
    #: Live only.
    batch: bool = False
    halving_filter: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("sim_all2all_n64", "sim", 64, 8, None, 1.0,
             modules=("cpu", "mem", "disk", "net"),
             metrics=("LOADAVG", "FREEMEM", "DISKUSAGE",
                      "NET_BANDWIDTH"),
             sim_rate=3.0),
    Workload("sim_fanin_n1000", "sim", 1000, 64, 8, 5.0,
             modules=("cpu", "mem"), metrics=("LOADAVG", "FREEMEM"),
             sim_rate=6.0),
    Workload("live_all2all_n8", "live", 8, 8, None, 0.1),
    Workload("live_pair_n2", "live", 2, 2, None, 0.01),
    Workload("live_fanin_batch_n16", "live", 16, 16, 2, 0.02,
             batch=True, halving_filter=True),
)}

#: Telemetry counters summed over nodes at both ends of the window.
_COUNTERS = ("dmon.polls", f"kecho.{MONITOR_CHANNEL}.submits",
             f"kecho.{MONITOR_CHANNEL}.receives",
             f"kecho.{MONITOR_CHANNEL}.tx_bytes")
#: Per-layer numbers only an untraced repeat may report.
_DISTORTED_BY_TRACING = (
    "perf.raw_cpu_us_per_record", "perf.raw_setup_s",
    "perf.reference_kernel_ms",
    "dproc.procfs.first_read_ns", "dproc.procfs.read_ns",
    "live.visible_latency_p50_us", "live.visible_latency_p99_us")
#: Per-layer numbers a backend cannot have; reported as 0 there.
_ABSENT = {"sim": ("live.poll_lag_p99_ms", "live.loop_lag_p99_ms"),
           "live": ("sim.core.events", "sim.core.events_per_record",
                    "sim.core.host_ns_per_event",
                    "sim.core.events_per_s")}
_WIRE = ("net.tx_wire_bytes", "net.tx_wire_frames", "net.tx_frames",
         "net.backpressure_pauses", "net.backpressure_drops")


class Recorder:
    """The benchmark's update hook: arrival time and collect stamp."""

    def __init__(self, clock) -> None:
        self.arrivals = array("d")
        self.stamps = array("d")
        arrived, stamped = self.arrivals.append, self.stamps.append

        def hook(host, metric, value, ts) -> None:
            arrived(clock.now)
            stamped(ts)

        self.hook = hook


def _snapshot(nodes, wire_stats=None) -> dict:
    """Counters at one edge of the window (cheap, but not free: the
    caller stamps CPU on the window's side of this call)."""
    snap = {"published": {
        node.name: node.telemetry.value("dmon.records_published")
        for node in nodes}}
    for name in _COUNTERS:
        snap[name] = sum(node.telemetry.value(name) for node in nodes)
    wire = wire_stats() if wire_stats is not None else {}
    for name in _WIRE:
        snap[name] = wire.get(name, 0.0)
    return snap


def _percentile(ordered: list, q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _sweep(dproc, hosts) -> float:
    """Read every host's loadavg file once; ns per read."""
    start = perf_counter()
    for host in hosts:
        dproc.read(f"/proc/cluster/{host}/loadavg")
    return (perf_counter() - start) / len(hosts) * 1e9


def _files_below(procfs, path: str) -> int:
    return sum(_files_below(procfs, f"{path}/{name}")
               if procfs.is_dir(f"{path}/{name}") else 1
               for name in procfs.listdir(path))


def _procfs_values(dprocs, names, watchers) -> tuple[dict, list]:
    """Read sweep, mount count and the every-watcher-sees-every-host
    check; returns (values, failures)."""
    first = dprocs[watchers[0]]
    values = {"dproc.procfs.first_read_ns": _sweep(first, names)}
    steady = sorted(_sweep(first, names) for _ in range(5))
    values["dproc.procfs.read_ns"] = steady[2]
    per_host = _files_below(first.procfs, f"/proc/cluster/{names[0]}")
    values["dproc.procfs.mounts"] = float(sum(
        2 + per_host * len(d.hosts()) for d in dprocs.values()))
    failures = []
    for watcher in watchers:
        for host in names:
            if host == watcher:
                continue
            for fname in ("loadavg", "freemem"):
                path = f"/proc/cluster/{host}/{fname}"
                if math.isnan(float(dprocs[watcher].read(path))):
                    failures.append(f"{watcher} reads NaN at {path}")
    return values, failures[:10]


class _Token:
    """What the reference kernel pushes around: one small object."""

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0.0

    def step(self, x: int) -> float:
        self.total += x
        return self.total * 0.5


def _reference_kernel() -> float:
    """CPU seconds of a fixed stdlib-only kernel: heap pushes and pops,
    dict stores and method calls, the simulator's and asyncio's diet.

    The host is a small shared VM whose speed shifts by up to 1.6x in
    phases of several seconds; every layer of the program slows with
    it, and so does this kernel, which the program cannot change.
    """
    start = process_time()
    heap: list = []
    table: dict = {}
    token = _Token()
    push, pop = heapq.heappush, heapq.heappop
    for i in range(REFERENCE_STEPS):
        push(heap, ((i * 7919) % 1013 * 0.001, i, token))
        table[i & 255] = token.step(i)
        if i & 1:
            pop(heap)
    while heap:
        pop(heap)
    return process_time() - start


def _kernel_samples() -> list:
    """Three timings of the kernel, after one to warm it up."""
    _reference_kernel()
    return [_reference_kernel() for _ in range(3)]


def _calibrated(seconds: float, kernel_times: list) -> float:
    """``seconds`` as they would read on a host where the reference
    kernel takes its nominal time rather than ``kernel_times``."""
    return seconds * REFERENCE_NOMINAL / statistics.median(kernel_times)


def _mark(marks: list, arrived: int) -> None:
    """Close a slice, time the reference kernel, open the next slice."""
    cpu = process_time()
    marks.append((cpu, arrived, _reference_kernel(), process_time()))


def _slice_costs(marks: list) -> dict:
    """CPU us per arrived record, slice by slice, raw and calibrated.

    The calibrated cost of a slice is its raw cost scaled by
    ``REFERENCE_NOMINAL`` over the kernel time measured at its two
    edges: the cost on a host where the kernel takes its nominal time.
    """
    raw, calibrated, kernel = [], [], []
    run_cpu = 0.0
    for (_, n1, ref1, opened), (closed, n2, ref2, _) in zip(marks,
                                                          marks[1:]):
        run_cpu += closed - opened
        if n2 > n1:
            cost = (closed - opened) / (n2 - n1) * 1e6
            raw.append(cost)
            calibrated.append(_calibrated(cost, [ref1, ref2]))
            kernel.append((ref1 + ref2) / 2)
    return {
        "cpu_us_per_record": statistics.median(calibrated),
        "perf.raw_cpu_us_per_record": statistics.median(raw),
        "perf.reference_kernel_ms": statistics.median(kernel) * 1e3,
        "run_cpu_s": run_cpu,
    }


def _window_values(rec: Recorder, t1: float, t2: float, marks: list,
                   before: dict, after: dict, watchers,
                   live: bool) -> tuple[dict, int, int]:
    """Everything derived from one measured window ``[t1, t2)``.

    ``attempted`` counts records *collected* in the window times their
    audience; ``delivered`` counts those of them that had arrived when
    the quiesce ended.  CPU is divided by records that *arrived* in the
    window, the work the window's CPU actually did.
    """
    watcher_set = set(watchers)
    published = attempted = 0
    for host, count in after["published"].items():
        delta = int(count - before["published"][host])
        published += delta
        attempted += delta * (len(watcher_set) - (host in watcher_set))
    latencies = sorted(a - s for a, s in zip(rec.arrivals, rec.stamps)
                       if t1 <= s < t2)
    delivered = len(latencies)
    arrived = sum(1 for a in rec.arrivals if t1 <= a < t2)
    delta = {name: after[name] - before[name]
             for name in _COUNTERS + _WIRE}
    wire_bytes = delta["net.tx_wire_bytes"] if live \
        else delta[f"kecho.{MONITOR_CHANNEL}.tx_bytes"]
    writes = delta["net.tx_wire_frames"]
    values = {
        **_slice_costs(marks),
        "wire_bytes_per_record": wire_bytes / max(delivered, 1),
        "delivered_frac": delivered / max(attempted, 1),
        "dproc.dmon.polls": delta["dmon.polls"],
        "dproc.dmon.records_published": float(published),
        "dproc.dmon.records_delivered": float(arrived),
        "kecho.submits": delta[f"kecho.{MONITOR_CHANNEL}.submits"],
        "kecho.deliveries": delta[f"kecho.{MONITOR_CHANNEL}.receives"],
        "kecho.fanout_mean": attempted / max(published, 1),
        "live.transport.wire_writes": writes,
        "live.transport.frames_per_write":
            delta["net.tx_frames"] / writes if writes else 0.0,
        "live.transport.backpressure_pauses":
            delta["net.backpressure_pauses"],
        "live.transport.backpressure_drops":
            delta["net.backpressure_drops"],
        "live.visible_latency_p50_us":
            _percentile(latencies, 0.50) * 1e6 if live else 0.0,
        "live.visible_latency_p99_us":
            _percentile(latencies, 0.99) * 1e6 if live else 0.0,
    }
    return values, attempted, delivered


def _patch(log, captured: list) -> None:
    """The traced pass: spans around the public entry of each layer."""
    import repro.sim as sim
    from repro.dproc import DMon, Dproc
    from repro.kecho import ChannelEndpoint
    log.wrap(sim, "build_cluster", "sim.build_cluster")
    log.wrap(sim.Environment, "run", "sim.core.run")
    log.wrap(Dproc, "__init__", "dproc.init")
    log.wrap(Dproc, "start", "dproc.start")
    log.wrap(Dproc, "add_cluster_node", "dproc.procfs.mount")
    log.wrap(Dproc, "read", "dproc.procfs.read")
    log.wrap(Dproc, "write", "dproc.procfs.write")
    log.wrap(DMon, "poll_once", "dproc.dmon.poll_once")
    log.wrap(ChannelEndpoint, "submit", "kecho.submit",
             capture=captured)


def _span_values(log, setup_end: float, run_start: float,
                 run_end: float, run_cpu: float, records: float) -> dict:
    """Per-layer numbers from the spans, and what they leave unexplained."""
    setup = log.summary(until=setup_end)
    run = log.summary(since=run_start, until=run_end)

    def total(table, name, field="total_s"):
        return table.get(name, {}).get(field, 0.0)

    polls = total(run, "dproc.dmon.poll_once", "count")
    submits = total(run, "kecho.submit", "count")
    poll_self = total(run, "dproc.dmon.poll_once", "self_s")
    submit = total(run, "kecho.submit")
    records = max(records, 1.0)
    return {
        "sim.build_cluster_s": total(setup, "sim.build_cluster"),
        "dproc.deploy_s": total(setup, "dproc.init", "self_s")
                          + total(setup, "dproc.start", "self_s"),
        "dproc.procfs.mount_s": total(setup, "dproc.procfs.mount"),
        "dproc.dmon.poll_self_us": poll_self / polls * 1e6 if polls
                                   else 0.0,
        "kecho.submit_us": submit / submits * 1e6 if submits else 0.0,
        "attrib.dmon_poll_us_per_record": poll_self / records * 1e6,
        "attrib.kecho_submit_us_per_record": submit / records * 1e6,
        # The receive path (transport, decode, dispatch, d-mon update)
        # and the kernel/event loop have no span of their own yet.
        "attrib.unattributed_frac":
            1.0 - (poll_self + submit) / run_cpu if run_cpu else 0.0,
    }


def _fingerprint(parts: dict) -> str:
    text = json.dumps(parts, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- simulator ------------------------------------------------------------


def _run_sim(w: Workload, nodes: int, seed: int, seconds: float,
             log) -> dict:
    import repro.sim as sim
    from repro.dproc import METRIC_FILES, DMonConfig, Dproc, MetricId
    from repro.kecho import KechoBus
    from repro.telemetry import overhead_summary

    sim_seconds = w.sim_rate * seconds / SHARES
    kernel_times = _kernel_samples()
    start = perf_counter()
    env = sim.Environment()
    cluster = sim.build_cluster(env, nodes=nodes, seed=seed)
    bus = KechoBus()
    names = cluster.names
    watchers = names if w.watchers is None else names[:w.watchers]
    subset = frozenset(MetricId[m] for m in w.metrics)
    dprocs = {}
    for name in names:
        config = DMonConfig(poll_interval=w.poll, metric_subset=subset,
                            subscribe_monitoring=name in watchers)
        dprocs[name] = Dproc(cluster[name], bus, config, w.modules)
    # Only the watchers need the /proc/cluster view.
    for name in watchers:
        for host in names:
            dprocs[name].add_cluster_node(host)
    for dproc in dprocs.values():
        dproc.start()
    rec = Recorder(env)
    for name in watchers:
        dprocs[name].dmon.update_hooks.append(rec.hook)
    setup_end = perf_counter()
    kernel_times += _kernel_samples()

    before = _snapshot(cluster)
    run_start = perf_counter()
    marks: list = []
    _mark(marks, len(rec.arrivals))
    for k in range(1, SLICES + 1):
        env.run(until=sim_seconds * k / SLICES)
        _mark(marks, len(rec.arrivals))
    run_end = perf_counter()
    after = _snapshot(cluster)
    events = env.events_processed
    overhead = overhead_summary(
        {node.name: node.telemetry for node in cluster},
        sim_seconds=sim_seconds)
    env.run(until=sim_seconds + QUIESCE)

    values, attempted, delivered = _window_values(
        rec, 0.0, sim_seconds, marks, before, after, watchers,
        live=False)
    arrived = values["dproc.dmon.records_delivered"]
    values.update({
        "setup_s": _calibrated(setup_end - start, kernel_times),
        "perf.raw_setup_s": setup_end - start,
        "sim.core.events": float(events),
        "sim.core.events_per_record": events / max(arrived, 1.0),
        "sim.core.host_ns_per_event": values["run_cpu_s"] / events * 1e9,
        "sim.core.events_per_s": events / values["run_cpu_s"],
    })
    procfs_values, failures = _procfs_values(dprocs, names, watchers)
    values.update(procfs_values)
    first = dprocs[watchers[0]]
    fingerprint = _fingerprint({
        "events": events, "attempted": attempted,
        "delivered": delivered,
        "latency_sum": repr(sum(a - s for a, s
                                in zip(rec.arrivals, rec.stamps))),
        "polls": overhead["polls"],
        "events_published": overhead["events_published"],
        "records_published": overhead["records_published"],
        "monitor_cpu": {k: repr(v) for k, v in overhead[
            "monitor_cpu_seconds"]["components"].items()},
        "procfs": [first.read(f"/proc/cluster/{host}/{fname}")
                   for host in names
                   for fname in METRIC_FILES.values()],
    })
    if log is not None:
        values.update(_span_values(log, setup_end, run_start, run_end,
                                   values["run_cpu_s"], arrived))
    return {"values": values, "attempted": attempted,
            "delivered": delivered, "failures": failures,
            "fingerprint": fingerprint, "probe_dproc": first,
            "probe_now": env.now}


# -- live -----------------------------------------------------------------


def _run_live(w: Workload, nodes: int, seed: int, seconds: float,
              log) -> dict:
    import asyncio

    from repro.api import Scenario
    from repro.dproc import ControlRequest, DMonConfig, FilterCommand
    from repro.live.transport import BatchConfig

    run_wall = seconds / SHARES
    duration = LEAD + run_wall + QUIESCE
    scenario = Scenario(nodes=nodes, seed=seed, backend="live",
                        dmon=DMonConfig(poll_interval=w.poll))
    if w.watchers is not None:
        scenario.with_node_pool(
            1, watchers=w.watchers,
            batch=BatchConfig() if w.batch else None)
    edges: dict = {}
    lags: list = []

    def instrument(sc: Scenario) -> None:
        names = sc.nodes.names
        watchers = names if w.watchers is None else names[:w.watchers]
        if w.halving_filter:
            for host in names:
                sc.dprocs[watchers[0]].write(
                    f"/proc/cluster/{host}/control",
                    ControlRequest([FilterCommand(
                        metric="cpu", filter_id="half",
                        source=HALVING_FILTER)]))
        rec = Recorder(sc.clock)
        for name in watchers:
            sc.dprocs[name].dmon.update_hooks.append(rec.hook)
        edges["rec"], edges["watchers"] = rec, watchers
        edges["setup_end"] = perf_counter()
        kernel_times.extend(_kernel_samples())
        clock, loop = sc.clock, asyncio.get_running_loop()
        marks = edges["marks"] = []

        def mark() -> None:
            if not marks:
                edges["before"] = _snapshot(sc.nodes,
                                            sc.runtime.wire_stats)
                edges["t1"], edges["run_start"] = clock.now, perf_counter()
            _mark(marks, len(rec.arrivals))
            if len(marks) == SLICES + 1:
                edges["t2"], edges["run_end"] = clock.now, perf_counter()
                edges["after"] = _snapshot(sc.nodes,
                                           sc.runtime.wire_stats)

        # A set-up slower than LEAD shortens the window, never the
        # quiesce; every metric is normalised by what the window saw.
        opens = max(LEAD, clock.now + 0.05)
        closes = duration - QUIESCE
        for k in range(SLICES + 1):
            loop.call_later(
                opens + (closes - opens) * k / SLICES - clock.now, mark)
        if log is not None:
            async def ticker(period: float = 0.01) -> None:
                due = loop.time() + period
                while True:
                    await asyncio.sleep(max(0.0, due - loop.time()))
                    lags.append((clock.now, loop.time() - due))
                    due += period
            edges["ticker"] = loop.create_task(ticker())
            sc.runtime.on_teardown(lambda rt: edges["ticker"].cancel())

    scenario.with_setup(instrument)
    kernel_times = _kernel_samples()
    start = perf_counter()
    scenario.run(duration)

    rec, watchers = edges["rec"], edges["watchers"]
    t1, t2 = edges["t1"], edges["t2"]
    names = scenario.nodes.names
    dprocs = scenario.dprocs
    values, attempted, delivered = _window_values(
        rec, t1, t2, edges["marks"], edges["before"], edges["after"],
        watchers, live=True)
    gaps = []
    for dproc in dprocs.values():
        times = [t for t, _ in dproc.dmon.submit_overhead if t1 <= t < t2]
        gaps += [b - a - w.poll for a, b in zip(times, times[1:])]
    values.update({
        "setup_s": _calibrated(edges["setup_end"] - start, kernel_times),
        "perf.raw_setup_s": edges["setup_end"] - start,
        "live.poll_lag_p99_ms": _percentile(sorted(gaps), 0.99) * 1e3,
    })
    procfs_values, failures = _procfs_values(dprocs, names, watchers)
    values.update(procfs_values)
    if t2 - t1 < 0.5 * run_wall:
        failures.append(f"set-up overran: window {t2 - t1:.2f}s of "
                        f"{run_wall:.2f}s")
    if values["live.transport.backpressure_drops"]:
        failures.append("backpressure dropped frames")
    if w.halving_filter:
        failures += _check_halved(dprocs, names, watchers)
    if log is not None:
        values.update(_span_values(
            log, edges["setup_end"], edges["run_start"],
            edges["run_end"], values["run_cpu_s"],
            values["dproc.dmon.records_delivered"]))
        values["live.loop_lag_p99_ms"] = _percentile(sorted(
            lag for t, lag in lags if t1 <= t < t2), 0.99) * 1e3
    return {"values": values, "attempted": attempted,
            "delivered": delivered, "failures": failures,
            "fingerprint": None, "probe_dproc": dprocs[watchers[0]],
            "probe_now": scenario.clock.now}


def _check_halved(dprocs, names, watchers) -> list:
    """Every publisher ran the shipped filter cleanly, and what watcher
    0 sees is half of what the publisher itself last sampled."""
    from repro.dproc import MetricId
    failures = []
    for host in names:
        deployed = dprocs[host].dmon.filters.deployed()
        if [f.filter_id for f in deployed] != ["half"]:
            failures.append(f"{host}: filter not deployed")
            continue
        half = deployed[0]
        if half.errors or half.invocations != half.total_outputs \
                or not half.invocations:
            failures.append(
                f"{host}: filter ran {half.invocations}x, "
                f"{half.total_outputs} outputs, {half.errors} errors")
        if host == watchers[0]:
            continue
        own = dprocs[host].dmon.last_samples[MetricId.LOADAVG]
        seen = dprocs[watchers[0]].loadavg(host)
        # The kernel's 1-minute average moves by at most a few percent
        # between the publisher's last two polls.
        if not abs(seen - 0.5 * own) <= 0.05 * own + 0.005:
            failures.append(f"{host}: loadavg {seen} is not half of "
                            f"{own}")
    return failures[:10]


# -- one repeat -----------------------------------------------------------


def run_repeat(name: str, seed: int, seconds: float, smoke: bool,
               traced: bool, spans_path=None) -> dict:
    """Build, run and check one workload once; JSON-ready result."""
    w = WORKLOADS[name]
    nodes = w.smoke_nodes if smoke else w.nodes
    log, captured = None, []
    if traced:
        from spans import SpanLog
        log = SpanLog()
        _patch(log, captured)
    load_start = os.getloadavg()[0]
    runner = _run_sim if w.backend == "sim" else _run_live
    result = runner(w, nodes, seed, seconds, log)
    values = result["values"]
    values.update(dict.fromkeys(_ABSENT[w.backend], 0.0))
    if traced:
        import probes
        events = [r.event for r in captured
                  if r.event.channel == MONITOR_CHANNEL]
        values.update(probes.run_all(result["probe_dproc"],
                                     result["probe_now"], events, seed,
                                     iterations=100 if smoke else 2000))
        # Spans and the ticker cost CPU: what they distort is dropped
        # here, and run.py takes no end-to-end number from this repeat.
        values["traced.cpu_us_per_record"] = values.pop(
            "cpu_us_per_record")
        for key in _DISTORTED_BY_TRACING:
            del values[key]
        if spans_path is not None:
            log.dump(spans_path)
    values["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"workload": name, "traced": traced, "values": values,
            "attempted": result["attempted"],
            "delivered": result["delivered"],
            "failures": result["failures"],
            "fingerprint": result["fingerprint"],
            "load_start": load_start, "load_end": os.getloadavg()[0]}
