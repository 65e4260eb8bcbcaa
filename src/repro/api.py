"""The stable scenario API: one object that wires a whole deployment.

:class:`Scenario` is the one way to build a run: every harness,
benchmark and example builds through it.  It owns the wiring (nodes,
bus, dproc deployment, fault injector, tracer) behind one fluent
builder and — because it talks to the backend only through
:class:`repro.runtime.protocol.Runtime` — the same scenario script
drives either backend::

    from repro.api import Scenario

    report = (Scenario(nodes=100, seed=7)
              .with_faults(lambda sc: sc.faults.schedule_loss(5, 0.3))
              .with_tracing()
              .run(60.0))
    print(report.dprocs["alan"].read("/proc/cluster/node42/loadavg"))

Backends
--------
``backend="sim"`` (default) builds eagerly: after :meth:`build` the
environment, cluster and dprocs all exist and virtual time is advanced
with :meth:`run_until` (repeatable) or :meth:`run` (one shot).

``backend="live"`` runs real asyncio tasks over localhost TCP, so
everything must be constructed *inside* a running event loop:
construction is deferred and :meth:`run` performs build + wall-clock
run + teardown in one call.  Hooks added with :meth:`with_setup` run
at build time on both backends, which is the portable place for
control-file writes, workload starts, and observers.

Fault injection is a simulator-only instrument (it hooks the virtual
transport); requesting it on the live backend raises immediately
rather than silently measuring nothing.  Causal tracing works on both
backends: the collector hangs on the run's bus.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from repro.dproc.dmon import DMonConfig
from repro.dproc.toolkit import DEFAULT_MODULES, Dproc
from repro.errors import ReproError
from repro.runtime.deployment import Deployment, default_names
from repro.runtime.protocol import NodeGroup, Runtime
from repro.runtime.sim import SimRuntime

__all__ = ["Scenario", "ScenarioError"]

#: A scenario hook: receives the built scenario, returns nothing.
Hook = Callable[["Scenario"], None]

#: A host selector: the first k hosts, the named hosts, or None (all).
Selector = Union[int, Sequence[str], None]


class ScenarioError(ReproError):
    """Misuse of the Scenario facade (wrong backend, wrong phase)."""


class Scenario:
    """Fluent builder for a full dproc deployment on either backend."""

    def __init__(self, nodes: int = 8, seed: int = 0, *,
                 backend: str = "sim",
                 dmon: Optional[DMonConfig] = None,
                 modules: Sequence[str] = DEFAULT_MODULES,
                 monitor_hosts: Selector = None,
                 watchers: Selector = None,
                 names: Optional[Sequence[str]] = None,
                 node_configs: Optional[Sequence] = None) -> None:
        """Describe the deployment; nothing is built yet.

        ``monitor_hosts`` restricts which nodes run dproc: an int
        means "the first k hosts", a sequence names them, None (the
        default) deploys everywhere.  ``watchers``, the same kind of
        selector, restricts which of them subscribe to the monitoring
        channel (None: all), so n hosts open O(n x watchers) channel
        links instead of O(n^2).  Either selector is checked when the
        run is built, before any node exists: a count outside
        ``0..nodes``, a bool, any other number, or a duplicate or
        unknown name raises :class:`ScenarioError`.  ``node_configs``
        is the simulator's hardware description, one per node (ignored
        by the live backend, whose hardware is the real host).
        """
        if backend not in ("sim", "live"):
            raise ScenarioError(f"unknown backend {backend!r}")
        self._nodes = nodes
        self._seed = seed
        self._backend = backend
        self._dmon = dmon
        self._modules = tuple(modules)
        self._monitor_hosts = monitor_hosts
        self._watchers = watchers
        self._names = list(names) if names is not None else None
        self._node_configs = node_configs
        #: ``with_node_pool`` arguments (None = one plain process).
        self._pool: Optional[dict] = None
        self._cluster_hooks: list[Hook] = []
        self._setup_hooks: list[Hook] = []
        #: Each requested instrument's arguments; None = not requested.
        self._fault_hooks: Optional[list[Hook]] = None
        self._tracing: Optional[tuple] = None
        self._obs: Optional[dict] = None
        self._obs_scrape: Optional[tuple[str, int]] = None
        #: Whether ``with_stream`` was requested (it takes no arguments).
        self._stream = False
        #: What the requested instruments recorded (None until built),
        #: and whether the stream has been replayed into the plane.
        self._stream_broker = None
        self._plane = None
        self._stream_ingested = False
        #: The live scrape endpoint (``with_observability(scrape_port=...)``).
        self.scrape = None
        #: Populated by :meth:`build`.
        self.runtime: Optional[Runtime] = None
        self.dprocs: dict[str, Dproc] = {}
        self.faults = None
        self.tracer = None
        self._duration = 0.0

    # -- fluent configuration ---------------------------------------------

    def with_cluster_setup(self, fn: Hook) -> "Scenario":
        """Run ``fn(scenario)`` after nodes exist, before dproc deploys.

        The hook for topology surgery (shared segments) and ambient
        workloads that must start ahead of monitoring.
        """
        self._check_mutable()
        self._cluster_hooks.append(fn)
        return self

    def with_setup(self, fn: Hook) -> "Scenario":
        """Run ``fn(scenario)`` once dprocs are deployed and started."""
        self._check_mutable()
        self._setup_hooks.append(fn)
        return self

    def with_faults(self, configure: Optional[Hook] = None) -> "Scenario":
        """Attach a :class:`repro.sim.faults.FaultInjector` (sim only).

        ``configure(scenario)`` runs right after the injector exists
        (``scenario.faults``), the place to register crash handlers
        and schedule the fault timeline.
        """
        self._check_mutable()
        if self._backend != "sim":
            raise ScenarioError(
                "fault injection hooks the simulated transport; the "
                "live backend fails for real")
        if self._fault_hooks is None:
            self._fault_hooks = []
        if configure is not None:
            self._fault_hooks.append(configure)
        return self

    def with_tracing(self, collector=None, **kwargs) -> "Scenario":
        """Attach a causal-trace collector to the run's bus.

        With no ``collector`` a fresh
        :class:`repro.tracing.TraceCollector` is created; ``kwargs``
        (e.g. ``sample_rate``) pass through to its constructor.  On the
        live backend no trace context crosses a socket, so a trace
        ends at the publisher's own delivery; with a node pool only
        this process's hosts are traced.
        """
        self._check_mutable()
        self._tracing = (collector, kwargs)
        return self

    def with_stream(self) -> "Scenario":
        """Tee the channel data plane into a durable stream broker.

        Every KECho submit, delivery and transport drop is appended to
        a per-channel log (:class:`repro.stream.StreamBroker`,
        available as :attr:`stream` after the run) that the replay
        toolkit — reconciler, stats-by-replay, stream-fed top — reads.
        Recording is passive: the sim event schedule is bit-identical
        with the stream on or off.  ``stream.dump(directory)`` writes
        it to disk as JSONL segments after the run.
        """
        self._check_mutable()
        self._stream = True
        return self

    def with_observability(self, *, sample_interval: float = 1.0,
                           rules=None, scrape_port: Optional[int] = None,
                           scrape_host: str = "127.0.0.1") -> "Scenario":
        """Attach the time-series metrics plane (both backends).

        A :class:`repro.obs.ObservabilityPlane` samples every node's
        telemetry registry each ``sample_interval`` seconds (virtual
        seconds on sim — deterministic, byte-stable exports; wall
        seconds on live) into a bounded ring-buffer TSDB, and a
        health/SLO engine (``rules``, default
        :func:`repro.obs.default_rules`) evaluates windowed queries
        with hysteresis, recording every verdict flip in
        ``obs.transitions``.  The plane is passive: goldens, traces
        and data-plane stream bytes are identical with it on or off.

        ``scrape_port`` (live only) additionally serves OpenMetrics
        ``/metrics`` and JSON ``/healthz`` over HTTP for the cluster
        (port 0 picks a free port; see :attr:`scrape` for the bound
        address).  After the run, :attr:`obs` is the plane; when a
        stream was recorded it is replayed into per-channel series on
        first access.
        """
        self._check_mutable()
        if scrape_port is not None and self._backend != "live":
            raise ScenarioError(
                "the scrape endpoint serves real HTTP; on the "
                "simulator export with scenario.obs / harness obs")
        self._obs = {"sample_interval": float(sample_interval),
                     "rules": tuple(rules) if rules is not None else None}
        self._obs_scrape = ((scrape_host, scrape_port)
                            if scrape_port is not None else None)
        return self

    def with_node_pool(self, workers: int = 2, *,
                       watchers: Selector = None,
                       batch=None) -> "Scenario":
        """Scale the live backend across worker processes (live only).

        The cluster's hosts are partitioned contiguously; this process
        keeps slice 0 (plus the registry server), each extra worker
        forks with its own event loop over one slice
        (:mod:`repro.live.pool`).  ``watchers``, when given, sets the
        constructor's ``watchers``.  ``batch`` (a
        :class:`~repro.live.transport.BatchConfig`) coalesces frames
        per destination.  ``workers=1`` keeps everything in-process
        but still applies batch/watchers.
        """
        self._check_mutable()
        if self._backend != "live":
            raise ScenarioError(
                "node pools fork real processes over real sockets; "
                "the simulator runs one kernel in this process")
        if workers < 1:
            raise ScenarioError(f"workers must be >= 1, got {workers}")
        self._pool = {"workers": int(workers), "batch": batch}
        if watchers is not None:
            self._watchers = watchers
        return self

    # -- build and run -----------------------------------------------------

    def build(self) -> "Scenario":
        """Construct everything now (simulator only)."""
        if self._backend != "sim":
            raise ScenarioError(
                "the live backend builds inside its event loop and "
                "runs wall-clock in one shot; call run() directly")
        if self.runtime is None:
            deployment = self._deployment()
            self._construct(
                SimRuntime(nodes=self._nodes, seed=self._seed,
                           names=self._names,
                           node_configs=self._node_configs),
                deployment)
        return self

    def run(self, duration: float) -> "Scenario":
        """Run the scenario for ``duration`` seconds and return it.

        Simulated seconds on the sim backend (repeatable — time keeps
        advancing across calls); wall seconds including full
        build/teardown on the live backend (one shot).
        """
        if self._backend == "sim":
            self.build()
            return self.run_until(self.env.now + duration)
        if self.runtime is not None:
            raise ScenarioError("a live scenario runs exactly once")
        deployment = self._deployment()
        runtime = self._make_live_runtime(deployment)
        runtime.setup(lambda rt: self._construct(rt, deployment))
        self._duration = duration
        runtime.run(duration)
        return self

    def run_until(self, until: float) -> "Scenario":
        """Advance the simulator to absolute time ``until`` (a live
        scenario runs in one shot)."""
        self.build()
        self.runtime.run(until)
        self._duration = until
        return self

    # -- the built world ---------------------------------------------------

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def nodes(self) -> NodeGroup:
        """The node group (``scenario.nodes["alan"]``, iterable)."""
        self._check_built()
        return self.runtime.nodes

    @property
    def env(self):
        """The simulator environment (sim only; live has no env)."""
        self._check_built()
        if self._backend != "sim":
            raise ScenarioError("the live backend has no Environment")
        return self.runtime.env

    @property
    def clock(self):
        self._check_built()
        return self.runtime.clock

    @property
    def registries(self) -> dict:
        """Host → telemetry registry for every host of the run.

        Local nodes contribute their own registry; hosts that ran in a
        live pool worker, the registry rebuilt from the counters that
        worker shipped home.  Every cluster-wide report
        (:meth:`overhead`, the live ``wire_stats()``) is a read of
        this one mapping.
        """
        self._check_built()
        return self.runtime.registries()

    def overhead(self, sim_seconds: Optional[float] = None) -> dict:
        """Cluster-wide monitoring-overhead summary for this run."""
        from repro.telemetry import overhead_summary
        return overhead_summary(
            self.registries,
            sim_seconds=sim_seconds if sim_seconds is not None
            else self._duration)

    @property
    def stream(self):
        """The durable stream broker (``with_stream`` scenarios only)."""
        self._check_wanted(self._stream, "no stream was recorded; "
                           "call with_stream()")
        self._check_built()
        return self._stream_broker

    @property
    def obs(self):
        """The observability plane (``with_observability`` scenarios).

        When the scenario also recorded a durable stream, its entries
        are replayed into per-channel ``stream.*`` series once, on
        first access; a stream whose ring dropped entries raises
        :class:`~repro.stream.StreamError` instead.
        """
        self._check_wanted(self._obs, "no observability plane; "
                           "call with_observability()")
        self._check_built()
        if self._stream and not self._stream_ingested:
            self._plane.ingest_stream(self._stream_broker)
            self._stream_ingested = True
        return self._plane

    # -- internals ---------------------------------------------------------

    def _check_mutable(self) -> None:
        if self.runtime is not None:
            raise ScenarioError(
                "scenario already built; add hooks before build()/run()")

    def _check_built(self) -> None:
        if self.runtime is None:
            raise ScenarioError("scenario not built yet; call build() "
                                "or run() first")

    def _check_wanted(self, requested, message: str) -> None:
        if not requested:
            raise ScenarioError(f"{message} before build()/run()")

    def _deployment(self) -> Deployment:
        """Freeze the configuration every process of this run deploys."""
        names = (self._names if self._names is not None
                 else default_names(self._nodes))
        if len(names) != self._nodes:
            raise ScenarioError(
                f"{len(names)} names for {self._nodes} nodes")
        monitored = _select(names, self._monitor_hosts, "monitor_hosts")
        return Deployment(
            seed=self._seed, dmon=self._dmon, modules=self._modules,
            names=tuple(names),
            monitored=tuple(names) if monitored is None else monitored,
            watchers=_select(names, self._watchers, "watchers"),
            batch=(self._pool or {}).get("batch"))

    def _make_live_runtime(self, deployment: Deployment):
        """The live runtime over this process's slice of the hosts
        (all of them unless ``with_node_pool`` forks workers)."""
        from repro.live.runtime import LiveRuntime
        slices = deployment.host_slices(
            (self._pool or {}).get("workers", 1))
        runtime = LiveRuntime(
            nodes=len(slices[0]), seed=self._seed, names=slices[0],
            batch=deployment.batch)
        if len(slices) > 1:
            # Only a run that forks loads the fork machinery.
            from repro.live.pool import LivePool
            runtime.pool = LivePool(slices[1:], deployment)
        return runtime

    def _construct(self, runtime: Runtime,
                   deployment: Deployment) -> None:
        """Wire the run on a ready runtime — the one path both
        backends take; the runtime is the world (its nodes, its bus,
        its clock).

        Construction order is frozen — cluster hooks, stream tee,
        dproc deployment, tracer, faults, setup hooks, observability —
        because on the simulator it fixes the event/RNG schedule that
        the golden pins assert.
        """
        self.runtime = runtime
        nodes = runtime.nodes
        for fn in self._cluster_hooks:
            fn(self)
        if self._stream:
            # Tee before deployment so the very first submits (the
            # d-mon start-up polls) are already on the record.  Purely
            # passive: no RNG, CPU or event-schedule interaction.
            from repro.stream import StreamBroker
            self._stream_broker = StreamBroker()
            runtime.bus.stream = self._stream_broker
        self.dprocs = deployment.deploy(nodes, runtime.bus,
                                        runtime.module_factory)
        if self._tracing is not None:
            from repro.tracing import TraceCollector
            collector, kwargs = self._tracing
            self.tracer = (collector if collector is not None
                           else TraceCollector(**kwargs))
            runtime.bus.tracer = self.tracer
        if self._fault_hooks is not None:
            from repro.sim.faults import FaultInjector
            self.faults = FaultInjector(nodes)
            for fn in self._fault_hooks:
                fn(self)
        for fn in self._setup_hooks:
            fn(self)
        if self._obs is not None:
            # After the frozen order on purpose: a plane only reads,
            # and its sampler is a pure timer process, so the
            # golden-pinned schedule is the same with it on or off.
            from repro.obs import ObservabilityPlane
            self._plane = ObservabilityPlane(**self._obs)
            self._plane.bind(node.name for node in nodes)
            nodes[nodes.names[0]].spawn(
                self._plane.sampler(nodes, runtime.clock),
                name="obs-sampler")
            if self._obs_scrape is not None:
                from repro.live.scrape import ScrapeServer
                host, port = self._obs_scrape
                self.scrape = ScrapeServer(nodes, self._plane,
                                           host=host, port=port)
                runtime.add_server(self.scrape)


def _select(names: Sequence[str], spec: Selector,
            knob: str) -> Optional[tuple]:
    """Resolve a host selector to a tuple of names (None stays None).

    An int counts the first hosts; a list or tuple names distinct
    hosts.  Anything else — a bool, another number, a string — is
    refused, as is a count outside ``0..len(names)``.
    """
    if spec is None:
        return None
    if isinstance(spec, int) and not isinstance(spec, bool):
        if not 0 <= spec <= len(names):
            raise ScenarioError(
                f"{knob}={spec} is not a count of 0..{len(names)} hosts")
        return tuple(names[:spec])
    if not (isinstance(spec, (list, tuple))
            and all(isinstance(name, str) for name in spec)):
        raise ScenarioError(
            f"{knob} is a host count or a list of host names, "
            f"not {spec!r}")
    unknown = sorted(set(spec) - set(names))
    if unknown:
        raise ScenarioError(f"{knob} names unknown hosts: {unknown}")
    if len(set(spec)) != len(spec):
        raise ScenarioError(f"{knob} names a host twice: {list(spec)}")
    return tuple(spec)
