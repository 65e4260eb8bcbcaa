"""d-mon: the distributed-monitor coordinator module.

One :class:`DMon` runs per node.  It owns the two KECho channels
(monitoring + control), polls registered monitoring modules once per
polling interval, runs parameters and dynamic filters over the sampled
metrics, publishes the surviving records, and maintains the local cache
of every *remote* node's metrics (which procfs exposes under
``/proc/cluster``).

One poll is one :class:`~repro.dproc.batch.RecordBatch`: the modules'
value columns side by side under an id column laid out once per module
set, narrowed by index to what the parameters and filters let through,
published as it is, and applied record by record at each subscriber.

Instrumentation mirrors the paper's measurements:

* ``submit_overhead`` — kernel CPU seconds spent submitting events, one
  sample per polling iteration (Figures 6 and 7);
* ``receive_overhead`` — kernel CPU seconds spent receiving events
  between consecutive polls (Figure 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.dproc.batch import RecordBatch
from repro.dproc.control_file import ControlCommand, parse_command
from repro.dproc.filters import FilterManager, InputRecords
from repro.dproc.metrics import MetricId, metric_by_name
from repro.dproc.modules.base import KeyedSample, MonitoringModule
from repro.dproc.params import MetricPolicy
from repro.errors import DprocError, InterruptError
from repro.kecho import ChannelEvent, ControlMessage, control_message_size
from repro.runtime.protocol import Bus, RuntimeNode
from repro.runtime.series import MEASUREMENT_HISTORY, CounterTrace
from repro.tracing.context import TraceRef

__all__ = ["DMonConfig", "DMon", "RemoteMetric",
           "PEER_FRESH", "PEER_STALE", "PEER_DEAD", "PEER_UNKNOWN",
           "STALE_AFTER_INTERVALS", "DEAD_AFTER_INTERVALS",
           "MONITOR_CHANNEL", "CONTROL_CHANNEL",
           "EVENT_HEADER_BYTES", "BYTES_PER_RECORD"]

UpdateHook = Callable[[str, MetricId, float, float], None]

#: Peer-liveness states, derived from how long ago a peer's monitoring
#: data was last heard (in units of the polling interval).
PEER_FRESH = "fresh"
PEER_STALE = "stale"
PEER_DEAD = "dead"
PEER_UNKNOWN = "unknown"

#: A peer unheard for more than this many polling intervals is
#: reported *stale* ...
STALE_AFTER_INTERVALS = 3.0
#: ... and after this many, *dead*.  Stale/dead entries stay readable
#: (last-known values) but are flagged, never silently fresh.
DEAD_AFTER_INTERVALS = 10.0

#: The KECho channels every d-mon joins: monitoring data and control.
MONITOR_CHANNEL = "dproc.monitor"
CONTROL_CHANNEL = "dproc.control"

#: The encoded event-size model (framing bytes per event, bytes per
#: metric record), shared with the centralized baseline.
EVENT_HEADER_BYTES = 40.0
BYTES_PER_RECORD = 12.0


@dataclass(frozen=True)
class DMonConfig:
    """Static d-mon configuration."""

    #: Seconds between polling iterations ("every second, d-mon polls").
    poll_interval: float = 1.0
    #: Extra payload bytes per event (the Figure 7 "5 KB events" knob).
    payload_padding: float = 0.0
    #: Restrict publication to these metrics (None = all registered).
    metric_subset: Optional[frozenset[MetricId]] = None
    #: Subscribe to the monitoring channel at start (import remote data).
    subscribe_monitoring: bool = True

    def __post_init__(self) -> None:
        # Zero busy-polls, a negative value fails in the clock, and
        # inf/nan would make the first-poll stagger inf/nan: refuse
        # them here, the same way on both backends.
        if not (math.isfinite(self.poll_interval)
                and self.poll_interval > 0):
            raise DprocError(
                "poll_interval must be a finite number of seconds > 0, "
                f"not {self.poll_interval!r}")

    @property
    def stale_after(self) -> float:
        """Seconds unheard after which a peer reads *stale*."""
        return STALE_AFTER_INTERVALS * self.poll_interval


@dataclass(slots=True)
class RemoteMetric:
    """Latest known value of one metric at one remote host.

    When this node last heard the host is
    :attr:`DMon.peer_last_heard`; the reading's own age is
    ``now - timestamp``.
    """

    value: float
    timestamp: float      # when the source sampled it


class DMon:
    """The per-node distributed monitor."""

    def __init__(self, node: RuntimeNode, bus: Bus,
                 config: DMonConfig | None = None) -> None:
        self.node = node
        self.bus = bus
        self.config = config or DMonConfig()
        self.modules: dict[str, MonitoringModule] = {}
        self.policies: dict[MetricId, MetricPolicy] = {}
        self.filters = FilterManager(node)
        self.running = False
        # publication state ------------------------------------------------
        self._last_sent: dict[MetricId, float] = {}
        self._last_sent_at: dict[MetricId, float] = {}
        # remote cache ------------------------------------------------------
        self.remote: dict[str, dict[MetricId, RemoteMetric]] = {}
        #: host -> latest per-process summary heard from that host, as
        #: ``(kind, rows)``: ``"top"`` (sketch-filtered: pid -> ranked
        #: weight) or ``"full"`` (unfiltered: pid -> (cpu, mem, io)).
        self.remote_procs: dict[str, tuple[str, dict[int, object]]] = {}
        #: What this node last *published* on the keyed stream, the same
        #: way (served for its own /proc/cluster/<self>/proc_top entry).
        self.last_procs: Optional[tuple[str, dict[int, object]]] = None
        #: host -> sim time its monitoring data was last received, or
        #: for this node its last poll (drives the fresh/stale/dead
        #: liveness states).
        self.peer_last_heard: dict[str, float] = {}
        self.update_hooks: list[UpdateHook] = []
        # instrumentation ---------------------------------------------------
        self.submit_overhead = CounterTrace(MEASUREMENT_HISTORY)
        self.receive_overhead = CounterTrace(MEASUREMENT_HISTORY)
        self.polls = 0
        # self-telemetry: named instruments in the node registry, bound
        # once (hot path).  All no-ops when the node disables telemetry.
        telemetry = node.telemetry
        self._t_polls = telemetry.counter("dmon.polls")
        self._t_collect = telemetry.counter("dmon.collect_seconds")
        self._t_filter = telemetry.counter("dmon.filter_seconds")
        self._t_param = telemetry.counter("dmon.param_seconds")
        self._t_submit = telemetry.counter("dmon.submit_seconds")
        self._t_receive = telemetry.counter("dmon.receive_seconds")
        self._t_events = telemetry.counter("dmon.events_published")
        self._t_records = telemetry.counter("dmon.records_published")
        #: module name -> its dmon.module.<name>.collect_seconds counter.
        self._t_module_collect: dict[str, object] = {}
        #: Most recent local samples (served for the node's own
        #: /proc/cluster/<self>/ entries).
        self.last_samples: dict[MetricId, float] = {}
        #: (host, metric) -> TraceRef of the traced event that last
        #: updated the remote cache — the adaptation audit's evidence
        #: link.  Bounded by cluster size x metric count.
        self._provenance: dict[tuple[str, MetricId], TraceRef] = {}
        self._ctl_seq = 0
        self._rx_cost_mark = 0.0
        self._monitor_ep = None
        self._control_ep = None
        self._poll_proc = None
        #: Bumped on every start/stop so a stale polling process from a
        #: previous life exits instead of double-polling after restart.
        self._epoch = 0
        # The poll layout, rebuilt whenever a module registers ------------
        #: Published metric ids, in first-registration order.
        self._ids: tuple[MetricId, ...] = ()
        #: How many values the modules' ``collect`` return, together.
        self._width = 0
        #: Positions of ``_ids``' values among the modules' collected
        #: values side by side; None when they are those values as is.
        self._pick: Optional[list[int]] = None
        #: Per module: its name, and the positions in ``_ids`` it
        #: decides.
        self._spans: list[tuple[str, range]] = []

    # -- lifecycle ------------------------------------------------------------

    def register_service(self, module: MonitoringModule) -> None:
        """Register a monitoring module (its collect() is the callback).

        Modules can be added at any time, before or after start —
        dproc's run-time extensibility.
        """
        if module.name in self.modules:
            raise DprocError(
                f"module {module.name!r} already registered on "
                f"{self.node.name}")
        self.modules[module.name] = module
        self._t_module_collect[module.name] = self.node.telemetry.counter(
            f"dmon.module.{module.name}.collect_seconds")
        for metric in module.metrics():
            self.policies.setdefault(metric, MetricPolicy())
        self._lay_out()
        if self.running and not module.started:
            module.start()

    def _lay_out(self) -> None:
        """Lay the modules' value columns out under one id column.

        A metric published by two modules appears once, at its first
        position, and carries the value collected last; the first
        module that produces it decides whether it is sent.
        """
        subset = self.config.metric_subset
        slot: dict[MetricId, int] = {}
        pick: list[int] = []
        self._spans = []
        position = 0
        for module in self.modules.values():
            first = len(pick)
            for metric in module.metrics():
                if subset is None or metric in subset:
                    if metric in slot:
                        pick[slot[metric]] = position
                    else:
                        slot[metric] = len(pick)
                        pick.append(position)
                position += 1
            self._spans.append((module.name, range(first, len(pick))))
        self._ids = tuple(slot)
        self._width = position
        self._pick = None if pick == list(range(position)) else pick

    def start(self) -> None:
        """Connect channels, start modules, begin the polling loop.

        Restartable: after :meth:`stop` the d-mon comes back with fresh
        endpoints and instrumentation marks (the remote cache is kept —
        a rebooted node remembers, but its entries age normally).
        """
        if self.running:
            raise DprocError(f"d-mon on {self.node.name} already running")
        self.running = True
        self._epoch += 1
        # Restart hygiene: sketch filters (count-min / top-K) must not
        # carry counters across a crash/reboot — every epoch starts
        # with empty sketch state.
        self.filters.reset_state()
        self._monitor_ep = self.bus.connect(self.node, MONITOR_CHANNEL)
        self._control_ep = self.bus.connect(self.node, CONTROL_CHANNEL)
        self._control_ep.subscribe(self._on_control_event)
        if self.config.subscribe_monitoring:
            self._monitor_ep.subscribe(self._on_monitor_event)
        for module in self.modules.values():
            if not module.started:
                module.start()
        self._poll_proc = self.node.spawn(self._poll_loop(), name="d-mon")

    def stop(self) -> None:
        """Stop polling and detach from the channels.

        Every piece of per-life state is reset so a later
        :meth:`start` begins clean: endpoints, the receive-cost mark
        (a stale mark would make the first ``receive_overhead`` sample
        after restart negative) and the polling process.
        """
        if not self.running:
            return
        self.running = False
        self._epoch += 1
        for module in self.modules.values():
            module.stop()
        if self._monitor_ep is not None:
            self._monitor_ep.close()
        if self._control_ep is not None:
            self._control_ep.close()
        self._monitor_ep = None
        self._control_ep = None
        self._rx_cost_mark = 0.0
        proc, self._poll_proc = self._poll_proc, None
        if proc is not None and proc.is_alive \
                and self.node.env.active_process is not proc:
            proc.interrupt("d-mon stopped")

    # -- the polling loop --------------------------------------------------------

    def _poll_loop(self):
        env = self.node.env
        epoch = self._epoch
        try:
            # Small deterministic stagger so an n-node cluster's d-mons
            # do not submit in lock-step.
            yield env.timeout(
                float(self.node.rng.uniform(0, self.config.poll_interval)))
            while self.running and self._epoch == epoch:
                self.poll_once()
                yield env.timeout(self.config.poll_interval)
        except InterruptError:
            return

    def poll_once(self) -> float:
        """One polling iteration; returns its submission overhead (s)."""
        now = self.node.env.now
        self.polls += 1
        self._t_polls.inc()
        # A running d-mon hears itself once per poll; a stopped one
        # ages like any silent peer.
        self.peer_last_heard[self.node.name] = now
        costs = self.node.costs
        tracer = self.bus.tracer
        root = None
        if tracer is not None:
            # Poll counts are monotonic across restarts, so the trace
            # id is unique for the node's whole life.
            root = tracer.begin_trace(
                f"{self.node.name}:poll:{self.polls}",
                name=f"poll:{self.node.name}", stage="dmon",
                node=self.node.name, start=now, poll=self.polls)
        ctx = root.context if root is not None else None

        # 1. Collect from every registered module ("retrieve monitoring
        #    information from them at regular intervals"): one value
        #    column per module, side by side.
        collected: list[float] = []
        keyed_by_module: dict[str, list[KeyedSample]] = {}
        collect_cost = 0.0
        module_counters = self._t_module_collect
        for module in self.modules.values():
            collect_cost += costs.module_poll
            module_counters[module.name].inc(costs.module_poll)
            n_before = len(collected)
            collected += module.collect(now)
            if module.provides_keyed:
                rows = module.keyed_collect(now)
                if rows:
                    keyed_by_module[module.name] = rows
                    # Walking the per-process table costs kernel CPU
                    # per row sampled.
                    collect_cost += costs.proc_sample * len(rows)
                if ctx is not None:
                    tracer.record_span(
                        ctx, name=f"module:{module.name}",
                        stage="module", node=self.node.name,
                        start=now, end=now,
                        samples=len(collected) - n_before,
                        keyed=len(rows),
                        cpu_seconds=costs.module_poll
                        + costs.proc_sample * len(rows))
            elif ctx is not None:
                tracer.record_span(
                    ctx, name=f"module:{module.name}", stage="module",
                    node=self.node.name, start=now, end=now,
                    samples=len(collected) - n_before,
                    cpu_seconds=costs.module_poll)
        if len(collected) != self._width:
            raise DprocError(
                f"modules on {self.node.name} returned {len(collected)} "
                f"values for {self._width} metrics")
        pick = self._pick
        values = collected if pick is None \
            else [collected[i] for i in pick]
        self.last_samples = dict(zip(self._ids, values))

        # 2. Decide what to publish: dynamic filters first, parameters
        #    for every metric not governed by a filter.  Keyed streams
        #    (per-PID tables) go through sketch filters, which compress
        #    them to emitted top-K pairs; unfiltered keyed rows publish
        #    whole.
        ids, values, decide_cost, top_pairs, full_rows = self._decide(
            values, now, ctx, keyed_by_module)
        self.node.charge_kernel_seconds(collect_cost + decide_cost)

        # 3. Publish.  A full keyed row carries three values
        #    (cpu/mem/io), a top-K pair one — the record accounting
        #    that the ablation benchmark's event-volume story rests on.
        keyed_records = len(top_pairs) + 3 * len(full_rows)
        n_records = len(ids) + keyed_records
        submit_cost = 0.0
        if n_records and self._monitor_ep is not None:
            if self._has_audience():
                size = (EVENT_HEADER_BYTES
                        + BYTES_PER_RECORD * n_records
                        + self.config.payload_padding)
                batch = RecordBatch(ids, values, now)
                if top_pairs:
                    batch.proc_top = dict(top_pairs)
                    self.last_procs = ("top", dict(top_pairs))
                if full_rows:
                    batch.procs = {int(pid): (cpu, mem, io)
                                   for pid, cpu, mem, io in full_rows}
                    if not top_pairs:
                        self.last_procs = ("full", batch.procs)
                receipt = self._monitor_ep.submit(batch, size=size,
                                                  trace=ctx)
                submit_cost = receipt.cpu_seconds
                self._t_events.inc()
                self._t_records.inc(n_records)
                last_sent, last_sent_at = self._last_sent, \
                    self._last_sent_at
                for metric, value in zip(ids, values):
                    last_sent[metric] = value
                    last_sent_at[metric] = now

        # 4. Instrumentation (the paper's rdtsc-style measurements).
        self.submit_overhead.add(now, submit_cost)
        self._t_collect.inc(collect_cost)
        self._t_submit.inc(submit_cost)
        if self._monitor_ep is not None:
            rx = self._monitor_ep.receive_cpu_seconds
            self.receive_overhead.add(now, rx - self._rx_cost_mark)
            self._t_receive.inc(rx - self._rx_cost_mark)
            self._rx_cost_mark = rx
        if root is not None:
            # Ended at the clock's time, not the poll's start: on a
            # live node the clock moves while the poll runs.
            root.finish(self.node.env.now, published=bool(submit_cost),
                        records=n_records,
                        cpu_seconds=collect_cost + decide_cost
                        + submit_cost)
        return submit_cost

    def _has_audience(self) -> bool:
        """Anyone (local or remote) listening on the monitoring channel?

        The bus owns the answer (and caches its subscriber lists per
        subscription version); d-mon keeps no copy of it.
        """
        return bool(
            (self._monitor_ep is not None
             and self._monitor_ep.is_subscriber)
            or self.bus.remote_subscribers(
                MONITOR_CHANNEL, self.node.name))

    def _decide(self, values: list[float], now: float, trace=None,
                keyed: Optional[dict[str, list[KeyedSample]]] = None,
                ) -> tuple[list[MetricId], list[float], float,
                           list[tuple[int, float]], list[KeyedSample]]:
        """Apply filters/parameters to this poll's ``values`` (one per
        id of the layout); returns ``(ids to send, their values, cpu
        cost, emitted top-K pairs, unfiltered keyed rows)``.

        A parameter keeps or drops a record by its index; a filter's
        outputs replace the records of the metrics it governs.  A
        module's keyed stream is governed by whichever
        filter governs the module: the filter's ``emit()`` pairs
        replace the raw table (the sketch-compressed summary); with no
        filter the whole table publishes.  With ``trace`` (a
        TraceContext), every filter execution and parameter check
        records a decision span — the evidence the adaptation audit
        trail links SmartPointer decisions back to.
        """
        costs = self.node.costs
        cost = 0.0
        ids = self._ids
        send_ids: list[MetricId] = []
        send_values: list[float] = []
        top_pairs: list[tuple[int, float]] = []
        full_rows: list[KeyedSample] = []
        keyed = keyed or {}
        tracer = trace.collector if trace is not None else None
        policies = self.policies
        last_sent, last_sent_at = self._last_sent, self._last_sent_at
        filter_input: Optional[InputRecords] = None
        units = self._spans
        if self.filters.global_filter is not None:
            # A '*' filter is one unit: it governs every metric and
            # all keyed rows together, in place of each module's own.
            units = (("*", None),)
            keyed = {"*": [row for rows in keyed.values() for row in rows]}
        for scope, span in units:
            rows = keyed.get(scope)
            scoped = self.filters.filter_for(scope)
            if scoped is not None:
                if filter_input is None:
                    filter_input = self.filters.input_array(
                        self.last_samples, last_sent, now)
                result = self.filters.run(scoped, filter_input,
                                          keyed=rows or None)
                cost += costs.filter_exec
                self._t_filter.inc(costs.filter_exec)
                governed = self.last_samples if span is None \
                    else {ids[i] for i in span}
                # Units govern disjoint metrics, so what this one puts
                # is the tail of ``send_ids`` from here.
                start = len(send_ids)
                for record in result.outputs:
                    metric = metric_by_name(record.name)
                    if metric in governed:
                        _put(send_ids, send_values, metric, record.value)
                top_pairs.extend(result.emitted)
                if tracer is not None:
                    extra = ({"emitted": len(result.emitted)}
                             if rows else {})
                    tracer.record_span(
                        trace, name=f"filter:{scoped.filter_id}",
                        stage="dmon.filter", node=self.node.name,
                        start=now, end=now,
                        filter_id=scoped.filter_id, scope=scope,
                        kept=tuple(sorted(m.name.lower()
                                          for m in send_ids[start:])),
                        **extra)
                continue
            if rows:
                full_rows.extend(rows)
            for i in span:
                cost += costs.param_check
                self._t_param.inc(costs.param_check)
                metric = ids[i]
                policy = policies[metric]
                send = policy.is_default or policy.should_send(
                    values[i], now, last_sent.get(metric),
                    last_sent_at.get(metric))
                if send:
                    send_ids.append(metric)
                    send_values.append(values[i])
                if tracer is not None:
                    tracer.record_span(
                        trace, name=f"param:{metric.name.lower()}",
                        stage="dmon.param", node=self.node.name,
                        start=now, end=now, metric=metric.name.lower(),
                        value=values[i],
                        decision="send" if send else "suppress",
                        rule=policy.describe())
        return send_ids, send_values, cost, top_pairs, full_rows

    # -- receiving remote monitoring data ------------------------------------------

    def _on_monitor_event(self, event: ChannelEvent, trace) -> None:
        batch: RecordBatch = event.payload
        host = event.source
        if host == self.node.name:
            return
        store = self.remote.get(host)
        if store is None:
            store = self.remote[host] = {}
        now = self.node.env.now
        self.peer_last_heard[host] = now
        if batch.proc_top is not None:
            self.remote_procs[host] = ("top", dict(batch.proc_top))
        elif batch.procs is not None:
            self.remote_procs[host] = ("full", dict(batch.procs))
        if trace is not None:
            trace.collector.record_span(
                trace, name=f"update:{self.node.name}",
                stage="update", node=self.node.name, start=now, end=now,
                source=host, records=len(batch))
            ref = TraceRef(trace_id=trace.trace_id,
                           received_at=now)
            for metric in batch.ids:
                self._provenance[(host, metric)] = ref
        hooks = self.update_hooks
        ts = batch.ts
        for metric, value in zip(batch.ids, batch.values):
            # Update the cached record in place: one RemoteMetric per
            # (host, metric) for the life of the d-mon instead of a
            # fresh allocation per record per event.
            rec = store.get(metric)
            if rec is None:
                store[metric] = RemoteMetric(value=value, timestamp=ts)
            else:
                rec.value = value
                rec.timestamp = ts
            for hook in hooks:
                hook(host, metric, value, ts)

    def remote_value(self, host: str,
                     metric: MetricId) -> Optional[RemoteMetric]:
        """Latest cached value of ``metric`` at ``host`` (None if unseen)."""
        return self.remote.get(host, {}).get(metric)

    def provenance(self, host: str,
                   metric: MetricId) -> Optional[TraceRef]:
        """Trace reference of the event that last updated (host, metric).

        None when the cache entry was written by an untraced (or
        sampled-out) event.  This is what the SmartPointer server hands
        to :func:`repro.tracing.adaptation_audit` as decision evidence.
        """
        return self._provenance.get((host, metric))

    # -- peer liveness ---------------------------------------------------------

    def peer_age(self, host: str) -> float:
        """Seconds since ``host``'s monitoring data was last heard
        (``inf`` if never); the local node is heard at each poll."""
        heard = self.peer_last_heard.get(host)
        if heard is None:
            return math.inf
        return self.node.env.now - heard

    def peer_state(self, host: str) -> str:
        """Liveness of one peer: fresh, stale, dead or unknown.

        Entries transition fresh → stale → dead as polls go unheard;
        a cached value is therefore never *silently* fresh.  This is
        the one freshness rule: the ``status`` file prints it and
        :class:`~repro.dproc.aggregate.ClusterView` counts only the
        hosts it calls fresh.
        """
        age = self.peer_age(host)
        if math.isinf(age):
            return PEER_UNKNOWN
        if age > DEAD_AFTER_INTERVALS * self.config.poll_interval:
            return PEER_DEAD
        if age > self.config.stale_after:
            return PEER_STALE
        return PEER_FRESH

    # -- local customization API ----------------------------------------------------

    def resolve_metrics(self, spec: str) -> list[MetricId]:
        """Resolve a control-file metric spec to concrete metric ids.

        ``spec`` may be '*' (all resources), a registered module's
        name ('cpu'), or one metric name ('loadavg') a registered
        module produces; anything else raises :class:`DprocError`.
        """
        spec = spec.strip().lower()
        if spec == "*":
            # Modules may share metric ids: de-duplicate, keeping the
            # stable first-registration order.
            return list(dict.fromkeys(
                m for module in self.modules.values()
                for m in module.metrics()))
        if spec in self.modules:
            return list(self.modules[spec].metrics())
        self._scope_of(spec)  # raises unless a module produces it
        return [metric_by_name(spec)]

    def apply_control(self, command: ControlCommand) -> None:
        """Apply one parsed control command to this d-mon.

        The grammar has checked the command's value; what only this
        node can check — the metrics its modules produce, whether a
        filter compiles, which filter ids it holds — raises a
        :class:`DprocError` here, before any state changes.
        """
        verb = command.verb
        if verb == "unfilter":
            self.filters.remove(command.filter_id)
        elif verb == "filter":
            spec = command.metric
            scope = spec if spec in ("*", *self.modules) \
                else self._scope_of(spec)
            self.filters.deploy(command.value, scope=scope,
                                filter_id=command.filter_id or None)
        elif verb == "clear":
            for metric in self.resolve_metrics(command.metric):
                policy = self.policies[metric]
                if command.value == "period":
                    policy.clear_period()
                else:
                    policy.clear_thresholds()
        else:
            for metric in self.resolve_metrics(command.metric):
                policy = self.policies[metric]
                if verb == "period":
                    policy.set_period(command.value)
                else:
                    policy.add_threshold(command.value)

    def _scope_of(self, metric_spec: str) -> str:
        metric = metric_by_name(metric_spec)
        for name, module in self.modules.items():
            if metric in module.metrics():
                return name
        raise DprocError(
            f"metric {metric_spec!r} is not produced by any registered "
            f"module")

    def send_control(self, msg: ControlMessage) -> None:
        """Distribute a control message over the control channel.

        Its command is parsed first, so text the grammar rejects is
        never sent.  A message addressed to this host is applied here
        instead of sent, and what this d-mon cannot apply raises to
        the caller.
        """
        if self._control_ep is None:
            raise DprocError("d-mon not started: no control channel")
        command = parse_command(msg.command)
        now = self.node.env.now
        tracer = self.bus.tracer
        root = None
        if tracer is not None:
            self._ctl_seq += 1
            root = tracer.begin_trace(
                f"{self.node.name}:ctl:{self._ctl_seq}",
                name=f"control:{command.verb}", stage="control",
                node=self.node.name, start=now, kind=command.verb,
                target=command.metric)
        if msg.target == self.node.name:
            self.apply_control(command)
            if root is not None:
                tracer.record_span(
                    root.context, name=f"apply:{self.node.name}",
                    stage="update", node=self.node.name,
                    start=now, end=now, kind=command.verb)
        else:
            self._control_ep.submit(
                msg, size=control_message_size(msg),
                trace=root.context if root is not None else None)
        if root is not None:
            root.finish(self.node.env.now)

    def _on_control_event(self, event: ChannelEvent, trace) -> None:
        msg = event.payload
        if isinstance(msg, ControlMessage):
            if msg.target != self.node.name:
                return
            try:
                command = parse_command(msg.command)
                self.apply_control(command)
            except DprocError:
                pass
            else:
                if trace is not None:
                    now = self.node.env.now
                    trace.collector.record_span(
                        trace, name=f"apply:{self.node.name}",
                        stage="update", node=self.node.name,
                        start=now, end=now, kind=command.verb)
                return
        # A payload this node cannot parse or apply is the sender's
        # mistake: it is counted here, never raised into the delivery.
        self.node.telemetry.counter("dmon.control_rejected").inc()

    # -- instrumentation helpers ----------------------------------------------------

    def mean_submit_overhead(self, since: float = 0.0) -> float:
        """Average submission overhead per polling iteration (seconds)."""
        return self.submit_overhead.mean(since)

    def mean_receive_overhead(self, since: float = 0.0) -> float:
        """Average receive overhead per polling iteration (seconds)."""
        return self.receive_overhead.mean(since)


def _put(ids: list[MetricId], values: list[float], metric: MetricId,
         value: float) -> None:
    """Add a filter's output record; a metric output twice is sent
    once, at its first position, with its last value."""
    if metric in ids:
        values[ids.index(metric)] = value
    else:
        ids.append(metric)
        values.append(value)

