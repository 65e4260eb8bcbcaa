"""The stable scenario API: one object that wires a whole deployment.

Before this facade every harness and example hand-wired
``Environment`` + ``build_cluster`` + ``deploy_dproc`` + fault
injector + tracer in slightly different ways.  :class:`Scenario` owns
that wiring behind one fluent builder and — because it talks to the
backend only through :class:`repro.runtime.protocol.Runtime` — the
same scenario script drives either backend::

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

Fault injection and causal tracing are simulator-only instruments
(they hook the virtual transport); requesting them on the live backend
raises immediately rather than silently measuring nothing.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

from repro.dproc.dmon import DMonConfig
from repro.dproc.toolkit import DEFAULT_MODULES, Dproc, deploy_dproc
from repro.errors import ReproError
from repro.runtime.protocol import NodeGroup, Runtime
from repro.runtime.sim import SimRuntime

__all__ = ["Scenario", "ScenarioError"]

#: A scenario hook: receives the built scenario, returns nothing.
Hook = Callable[["Scenario"], None]


class ScenarioError(ReproError):
    """Misuse of the Scenario facade (wrong backend, wrong phase)."""


class Scenario:
    """Fluent builder for a full dproc deployment on either backend."""

    def __init__(self, nodes: int = 8, seed: int = 0, *,
                 backend: str = "sim",
                 dmon: Optional[DMonConfig] = None,
                 modules: Sequence[str] = DEFAULT_MODULES,
                 monitor_hosts: Union[int, Sequence[str], None] = None,
                 names: Optional[Sequence[str]] = None,
                 node_config=None,
                 node_configs: Optional[Sequence] = None) -> None:
        """Describe the deployment; nothing is built yet.

        ``monitor_hosts`` restricts which nodes run dproc: an int
        means "the first k hosts", a sequence names them, None (the
        default) deploys everywhere.  ``node_config`` /
        ``node_configs`` are the simulator's hardware descriptions
        (ignored by the live backend, whose hardware is the real
        host).
        """
        if backend not in ("sim", "live"):
            raise ScenarioError(f"unknown backend {backend!r}")
        self._nodes = nodes
        self._seed = seed
        self._backend = backend
        self._dmon = dmon
        self._modules = tuple(modules)
        self._monitor_hosts = monitor_hosts
        self._names = list(names) if names is not None else None
        self._node_config = node_config
        self._node_configs = node_configs
        self._workers = 1
        self._workers_mode = "auto"
        self._lookahead: Optional[float] = None
        self._experiments: list = []
        self._engines: list = []
        self._want_pool = False
        self._pool_workers = 1
        self._pool_watchers = None
        self._pool_batch = None
        self._pool_flow = None
        self._pool_uvloop = False
        self._pool_deployment = None
        self._cluster_hooks: list[Hook] = []
        self._setup_hooks: list[Hook] = []
        self._fault_hooks: list[Hook] = []
        self._want_faults = False
        self._want_tracing = False
        self._tracer_arg = None
        self._tracer_kwargs: dict = {}
        self._want_stream = False
        self._stream_dir = None
        self._stream_max_len: Optional[int] = None
        self._stream_broker = None
        self._shard_brokers: list = []
        self._want_obs = False
        self._obs_interval = 1.0
        self._obs_rules = None
        self._obs_kwargs: dict = {}
        self._obs_scrape: Optional[tuple[str, int]] = None
        self._obs_plane = None
        self._obs_log = None
        self._shard_planes: list = []
        self._shard_obs_logs: list = []
        self._obs_ingested = False
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
        self._want_faults = True
        if configure is not None:
            self._fault_hooks.append(configure)
        return self

    def with_tracing(self, collector=None, **kwargs) -> "Scenario":
        """Attach a causal-trace collector (sim only).

        With no ``collector`` a fresh
        :class:`repro.tracing.TraceCollector` is created; ``kwargs``
        (e.g. ``sample_rate``) pass through to its constructor.
        """
        self._check_mutable()
        if self._backend != "sim":
            raise ScenarioError(
                "causal tracing instruments the simulated pipeline; "
                "it is not available on the live backend")
        self._want_tracing = True
        self._tracer_arg = collector
        self._tracer_kwargs = kwargs
        return self

    def with_stream(self, directory=None, *,
                    max_len: Optional[int] = None) -> "Scenario":
        """Tee the channel data plane into a durable stream broker.

        Every KECho submit, delivery and transport drop is appended to
        a per-channel log (:class:`repro.stream.StreamBroker`,
        available as :attr:`stream` after the run) that the replay
        toolkit — reconciler, stats-by-replay, stream-fed top — reads.
        Recording is passive: the sim event schedule is bit-identical
        with the stream on or off.

        ``directory`` additionally persists every entry eagerly as
        JSONL segments (the live backend's durable log; works on sim
        too).  ``max_len`` bounds each channel's retained entries
        (hard ring bound; use the :class:`repro.stream.Janitor` for
        ack-respecting trims).
        """
        self._check_mutable()
        self._want_stream = True
        self._stream_dir = directory
        self._stream_max_len = max_len
        return self

    def with_observability(self, *, sample_interval: float = 1.0,
                           rules=None, scrape_port: Optional[int] = None,
                           scrape_host: str = "127.0.0.1",
                           health_every: int = 1,
                           name_prefixes: Optional[Sequence[str]] = None,
                           capacity: int = 240) -> "Scenario":
        """Attach the time-series metrics plane (both backends).

        A :class:`repro.obs.ObservabilityPlane` samples every node's
        telemetry registry each ``sample_interval`` seconds (virtual
        seconds on sim — deterministic, byte-stable exports; wall
        seconds on live) into a bounded ring-buffer TSDB, and a
        health/SLO engine (``rules``, default
        :func:`repro.obs.default_rules`) evaluates windowed queries
        with hysteresis, logging every verdict flip to a durable
        ``obs.health`` channel.  The plane is passive: goldens, traces
        and data-plane stream bytes are identical with it on or off.

        ``scrape_port`` (live only) additionally serves OpenMetrics
        ``/metrics`` and JSON ``/healthz`` over HTTP for the cluster
        (port 0 picks a free port; see :attr:`scrape` for the bound
        address).  After the run, :attr:`obs` is the plane — on
        sharded runs the per-shard planes merged in global time order;
        when a stream was recorded it is replayed into per-channel
        series on first access.
        """
        self._check_mutable()
        if scrape_port is not None and self._backend != "live":
            raise ScenarioError(
                "the scrape endpoint serves real HTTP; on the "
                "simulator export with scenario.obs / harness obs")
        self._want_obs = True
        self._obs_interval = float(sample_interval)
        self._obs_rules = tuple(rules) if rules is not None else None
        self._obs_kwargs = {"health_every": health_every,
                            "name_prefixes": name_prefixes,
                            "capacity": capacity}
        self._obs_scrape = ((scrape_host, scrape_port)
                            if scrape_port is not None else None)
        return self

    def with_workers(self, workers: int, *, mode: str = "auto",
                     lookahead: Optional[float] = None) -> "Scenario":
        """Shard the simulation across ``workers`` workers (sim only).

        Nodes are partitioned into shards synchronized with
        conservative lookahead (:mod:`repro.sim.shard`); cross-shard
        KECho traffic rides a WAN-class conduit.  ``workers=1`` is the
        plain single-process kernel, bit-identical to not calling this
        at all.  ``mode`` picks where shards run:

        * ``"processes"`` — one forked worker per shard (parallel);
          incompatible with hooks/faults/tracing, which close over
          parent state a fork cannot share back;
        * ``"inline"`` — all shards in this process, round-robin per
          window; the full Scenario surface works on a merged view;
        * ``"auto"`` (default) — inline when any hook, fault or
          tracing request is present, processes otherwise.

        ``lookahead`` overrides the conduit latency (seconds); the
        default is the WAN-hop latency the conduit models.  A sharded
        scenario is one-shot: ``run`` once, no ``build``/``run_until``.
        """
        self._check_mutable()
        if self._backend != "sim":
            raise ScenarioError(
                "sharding partitions the simulated cluster; the live "
                "backend already runs real parallel tasks")
        if workers < 1:
            raise ScenarioError(f"workers must be >= 1, got {workers}")
        if mode not in ("auto", "processes", "inline"):
            raise ScenarioError(f"unknown workers mode {mode!r}")
        self._workers = int(workers)
        self._workers_mode = mode
        self._lookahead = lookahead
        return self

    def with_experiment(self, *experiments) -> "Scenario":
        """Attach declarative experiments (both backends).

        Each :class:`repro.experiment.Experiment` spawns an engine on
        its observer node that ticks the policy every
        ``decide_interval`` seconds (virtual on sim, wall on live) and
        applies its adaptations through the real control plane.  After
        the run, :meth:`experiment_reports` returns one comparable
        :class:`~repro.experiment.ExperimentReport` per experiment.
        With no experiments attached nothing changes — the sim event
        schedule (and the goldens pinned to it) is untouched.
        """
        self._check_mutable()
        self._experiments.extend(experiments)
        return self

    def with_node_pool(self, workers: int = 2, *,
                       watchers: Union[int, Sequence[str],
                                       None] = None,
                       batch=None, flow=None,
                       uvloop: bool = False) -> "Scenario":
        """Scale the live backend across worker processes (live only).

        The cluster's hosts are partitioned contiguously; this process
        keeps slice 0 (plus the registry server), each extra worker
        forks with its own event loop over one slice
        (:mod:`repro.live.pool`).  ``watchers`` bounds subscription
        fan-in — an int means "the first k hosts", a sequence names
        them; only those subscribe to the monitoring channel, so a
        200-node pool opens O(nodes x watchers) sockets instead of
        O(nodes^2).  ``batch`` (a
        :class:`~repro.live.transport.BatchConfig`) coalesces frames
        per destination, ``flow`` (a
        :class:`~repro.live.transport.FlowConfig`) sets the
        backpressure watermarks, and ``uvloop=True`` installs uvloop
        when available.  ``workers=1`` keeps everything in-process but
        still applies batch/flow/watchers.
        """
        self._check_mutable()
        if self._backend != "live":
            raise ScenarioError(
                "node pools fork real processes; shard the simulator "
                "with with_workers() instead")
        if workers < 1:
            raise ScenarioError(f"workers must be >= 1, got {workers}")
        self._want_pool = True
        self._pool_workers = int(workers)
        self._pool_watchers = watchers
        self._pool_batch = batch
        self._pool_flow = flow
        self._pool_uvloop = uvloop
        return self

    # -- build and run -----------------------------------------------------

    def build(self) -> "Scenario":
        """Construct everything now (simulator backend only)."""
        if self._backend != "sim":
            raise ScenarioError(
                "the live backend builds inside its event loop; "
                "call run() directly")
        if self._workers > 1:
            raise ScenarioError(
                "a sharded scenario builds and runs in one shot; "
                "call run(duration) directly")
        if self.runtime is None:
            runtime = SimRuntime(
                nodes=self._nodes, seed=self._seed,
                config=self._node_config, names=self._names,
                node_configs=self._node_configs)
            self._construct(runtime)
        return self

    def run(self, duration: float) -> "Scenario":
        """Run the scenario for ``duration`` seconds and return it.

        Simulated seconds on the sim backend (repeatable — time keeps
        advancing across calls); wall seconds including full
        build/teardown on the live backend (one shot).
        """
        if self._backend == "sim":
            if self._workers > 1:
                return self._run_sharded(duration)
            self.build()
            return self.run_until(self.env.now + duration)
        if self.runtime is not None:
            raise ScenarioError("a live scenario runs exactly once")
        runtime = self._make_live_runtime()
        runtime.setup(self._construct)
        self._duration = duration
        runtime.run(duration)
        if self._stream_broker is not None:
            # Flush the live JSONL segments once the loop is down.
            self._stream_broker.close()
        return self

    def run_until(self, until: float) -> "Scenario":
        """Advance the simulator to absolute time ``until`` (sim only)."""
        if self._backend != "sim":
            raise ScenarioError(
                "stepped execution needs virtual time; the live "
                "backend runs wall-clock in one shot")
        if self._workers > 1:
            raise ScenarioError(
                "a sharded scenario runs in one shot; call "
                "run(duration)")
        self.build()
        self.runtime.run(until)
        self._duration = until
        return self

    # -- the built world ---------------------------------------------------

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def nodes(self) -> NodeGroup:
        """The node group (``scenario.nodes["alan"]``, iterable)."""
        self._check_built()
        return self.runtime.nodes

    @property
    def cluster(self):
        """Alias for :attr:`nodes` (the simulator's Cluster object)."""
        return self.nodes

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

    def overhead(self, sim_seconds: Optional[float] = None) -> dict:
        """Cluster-wide monitoring-overhead summary for this run."""
        from repro.telemetry import overhead_summary
        self._check_built()
        runtime_overhead = getattr(self.runtime, "overhead", None)
        if runtime_overhead is not None and sim_seconds is None:
            return runtime_overhead()
        span = sim_seconds if sim_seconds is not None else self._duration
        return overhead_summary(
            {node.name: node.telemetry for node in self.nodes},
            sim_seconds=span)

    @property
    def stream(self):
        """The durable stream broker (``with_stream`` scenarios only).

        On sharded runs this is the merged global view of the
        per-shard brokers, re-sequenced deterministically; it is
        assembled on first access after the run completes.
        """
        if not self._want_stream:
            raise ScenarioError(
                "no stream was recorded; call with_stream() before "
                "build()/run()")
        if self._stream_broker is not None:
            return self._stream_broker
        if self._shard_brokers:
            from repro.stream import merge_brokers
            merged = merge_brokers(self._shard_brokers)
            if getattr(self.runtime, "result", None) is not None:
                # The run is over: the merged view is final — cache it.
                self._stream_broker = merged
            return merged
        self._check_built()
        raise ScenarioError(
            "stream recording runs inline; no broker exists yet")

    @property
    def obs(self):
        """The observability plane (``with_observability`` scenarios).

        On sharded runs the per-shard planes are merged into one
        global plane on first access after the run; when the scenario
        also recorded a durable stream, its entries are replayed into
        per-channel ``stream.*`` series once, on first access.
        """
        if not self._want_obs:
            raise ScenarioError(
                "no observability plane; call with_observability() "
                "before build()/run()")
        plane = self._obs_plane
        if plane is None and self._shard_planes:
            from repro.obs import merge_planes
            plane = merge_planes(self._shard_planes)
            if getattr(self.runtime, "result", None) is not None:
                # The run is over: the merged plane is final — cache it.
                self._obs_plane = plane
        if plane is None:
            self._check_built()
            raise ScenarioError(
                "observability runs inline; no plane exists yet")
        if self._want_stream and not self._obs_ingested \
                and plane is self._obs_plane:
            plane.ingest_stream(self.stream)
            self._obs_ingested = True
        return plane

    @property
    def obs_log(self):
        """The durable ``obs.health`` transition log (a stream broker)."""
        if not self._want_obs:
            raise ScenarioError(
                "no observability plane; call with_observability() "
                "before build()/run()")
        if self._obs_log is not None:
            return self._obs_log
        if self._shard_obs_logs:
            from repro.stream import merge_brokers
            return merge_brokers(self._shard_obs_logs)
        self._check_built()
        raise ScenarioError(
            "observability runs inline; no transition log exists yet")

    def experiment_reports(self, *, duration: Optional[float] = None
                           ) -> list:
        """One :class:`~repro.experiment.ExperimentReport` per
        attached experiment, in attach order (after the run)."""
        if not self._experiments:
            raise ScenarioError(
                "no experiments attached; call with_experiment() "
                "before build()/run()")
        self._check_built()
        from repro.experiment import build_report
        workers = (self._workers if self._backend == "sim"
                   else self._pool_workers)
        return [build_report(self, engine, workers=workers,
                             duration=duration)
                for engine in self._engines]

    @property
    def shard_result(self):
        """Per-shard execution statistics (sharded runs only)."""
        self._check_built()
        result = getattr(self.runtime, "result", None)
        if result is None or self._workers <= 1:
            raise ScenarioError("no sharded run has completed")
        return result

    # -- internals ---------------------------------------------------------

    def _check_mutable(self) -> None:
        if self.runtime is not None:
            raise ScenarioError(
                "scenario already built; add hooks before build()/run()")

    def _check_built(self) -> None:
        if self.runtime is None:
            raise ScenarioError("scenario not built yet; call build() "
                                "or run() first")

    def _make_live_runtime(self):
        """Build the live runtime — plain, or the parent of a pool."""
        from repro.live.runtime import LiveRuntime
        if not self._want_pool:
            return LiveRuntime(nodes=self._nodes, seed=self._seed,
                               names=self._names)
        from repro.live.pool import (LivePool, PoolDeployment,
                                     partition_hosts)
        names = self._global_names()
        slices = partition_hosts(names, self._pool_workers)
        runtime = LiveRuntime(
            nodes=len(slices[0]), seed=self._seed, names=slices[0],
            batch=self._pool_batch, flow=self._pool_flow,
            use_uvloop=self._pool_uvloop)
        monitored = self._monitor_hosts
        if monitored is None:
            monitored = names
        elif isinstance(monitored, int):
            monitored = names[:monitored]
        watchers = self._pool_watchers
        if isinstance(watchers, int):
            watchers = tuple(names[:watchers])
        elif watchers is not None:
            watchers = tuple(watchers)
        self._pool_deployment = PoolDeployment(
            seed=self._seed, dmon=self._dmon, modules=self._modules,
            all_names=tuple(names), monitored=tuple(monitored),
            watchers=watchers, batch=self._pool_batch,
            flow=self._pool_flow, use_uvloop=self._pool_uvloop)
        if len(slices) > 1:
            runtime.pool = LivePool(slices[1:],
                                    self._pool_deployment)
        return runtime

    def _resolve_hosts(self, group: NodeGroup) -> Optional[list[str]]:
        spec = self._monitor_hosts
        if spec is None:
            return None
        if isinstance(spec, int):
            return group.names[:spec]
        return list(spec)

    def _construct(self, runtime: Runtime) -> None:
        """Wire the world on a ready runtime (either backend).

        Construction order is frozen — cluster hooks, dproc
        deployment, tracer, faults, setup hooks — because on the
        simulator it fixes the event/RNG schedule that the golden
        pins assert.
        """
        self.runtime = runtime
        for fn in self._cluster_hooks:
            fn(self)
        hosts = self._resolve_hosts(runtime.nodes)
        bus = runtime.make_bus()
        if self._want_stream:
            # Attach before deployment so the very first submits (the
            # d-mon start-up polls) are already on the record.  Purely
            # passive: no RNG, CPU or event-schedule interaction.
            from repro.stream import (JsonlSink, StreamBroker,
                                      attach_stream)
            sink = (JsonlSink(self._stream_dir)
                    if self._stream_dir is not None else None)
            self._stream_broker = StreamBroker(
                sink=sink, max_len=self._stream_max_len)
            attach_stream(self._stream_broker, bus, runtime.nodes)
        config_fn = roster = None
        if self._pool_deployment is not None:
            from repro.live.pool import watcher_config_fn
            config_fn = watcher_config_fn(
                self._dmon, self._pool_deployment.watchers)
            # The parent slice's /proc trees must show the whole
            # cluster, including hosts that live in worker processes.
            roster = self._pool_deployment.all_names
        self.dprocs = deploy_dproc(
            runtime.nodes, config=self._dmon, modules=self._modules,
            bus=bus, hosts=hosts,
            module_factory=getattr(runtime, "module_factory", None),
            config_fn=config_fn, roster=roster)
        if self._want_tracing:
            from repro.tracing import TraceCollector, attach_tracer
            self.tracer = (self._tracer_arg if self._tracer_arg
                           is not None
                           else TraceCollector(**self._tracer_kwargs))
            attach_tracer(runtime.nodes, self.tracer)
        if self._want_faults:
            from repro.sim.faults import FaultInjector
            self.faults = FaultInjector(runtime.nodes)
            for fn in self._fault_hooks:
                fn(self)
        for fn in self._setup_hooks:
            fn(self)
        if self._want_obs:
            # Last on purpose: the plane only reads, and its sampler is
            # a pure timer process, so attaching it after the frozen
            # order leaves the golden-pinned schedule untouched.
            self._obs_plane, self._obs_log = self._attach_obs(
                runtime.nodes, runtime.clock)
            if self._backend == "live" and self._obs_scrape is not None:
                from repro.live.scrape import ScrapeServer
                host, port = self._obs_scrape
                self.scrape = ScrapeServer(runtime.nodes,
                                           self._obs_plane,
                                           host=host, port=port)
                runtime.add_server(self.scrape)
        if self._experiments:
            # After the frozen order for the same reason as the obs
            # plane: engines add pure timer processes, so a scenario
            # with no experiments keeps a bit-identical schedule.
            for exp in self._experiments:
                self._attach_experiment(exp, runtime.nodes,
                                        runtime.clock)

    def _attach_obs(self, nodes, clock):
        """Build a plane over ``nodes`` and start its sampler."""
        from repro.obs import ObservabilityPlane
        from repro.stream import StreamBroker
        log = StreamBroker()
        plane = ObservabilityPlane(
            sample_interval=self._obs_interval,
            rules=self._obs_rules, health_log=log,
            **self._obs_kwargs)
        plane.bind(node.name for node in nodes)
        first = nodes[nodes.names[0]]
        first.spawn(plane.sampler(nodes, clock), name="obs-sampler")
        return plane, log

    def _attach_experiment(self, exp, nodes, clock) -> None:
        """Spawn one experiment engine on its observer node."""
        from repro.experiment import ExperimentEngine
        if not 0 <= exp.observer < len(nodes.names):
            raise ScenarioError(
                f"experiment {exp.name!r} observer index "
                f"{exp.observer} out of range")
        observer = nodes.names[exp.observer]
        dproc = self.dprocs.get(observer)
        if dproc is None:
            raise ScenarioError(
                f"experiment {exp.name!r} observer {observer!r} "
                f"runs no dproc (check monitor_hosts)")
        engine = ExperimentEngine(exp, dproc, clock)
        self._engines.append(engine)
        nodes[observer].spawn(engine.ticker(),
                              name=f"experiment-{exp.name}")

    def _global_names(self) -> list[str]:
        if self._names is not None:
            return list(self._names)
        from repro.sim.cluster import PAPER_NODE_NAMES
        return [PAPER_NODE_NAMES[i] if i < len(PAPER_NODE_NAMES)
                else f"node{i}" for i in range(self._nodes)]

    def _run_sharded(self, duration: float) -> "Scenario":
        """One-shot sharded run (``with_workers(n > 1)``)."""
        from repro.runtime.sharded import (ShardedFaultInjector,
                                           ShardedRuntime,
                                           _ShardDeployment)
        from repro.sim.topology import (DEFAULT_SHARD_LOOKAHEAD,
                                        partition_nodes)
        if self.runtime is not None:
            raise ScenarioError("a sharded scenario runs exactly once")
        if self._cluster_hooks:
            raise ScenarioError(
                "cluster-setup hooks rewire one fabric; a sharded "
                "run has one fabric per worker")
        wants_inline = bool(self._setup_hooks or self._fault_hooks
                            or self._want_faults or self._want_tracing
                            or self._want_stream or self._want_obs
                            or self._experiments)
        mode = self._workers_mode
        if mode == "auto":
            mode = "inline" if wants_inline else "processes"
        elif mode == "processes" and wants_inline:
            raise ScenarioError(
                "hooks, faults, tracing and streams close over parent "
                "state that forked workers cannot share back; use "
                "with_workers(..., mode='inline')")
        names = self._global_names()
        plan = partition_nodes(
            names, self._workers,
            lookahead=self._lookahead if self._lookahead is not None
            else DEFAULT_SHARD_LOOKAHEAD)
        monitored = self._monitor_hosts
        if monitored is None:
            monitored = names
        elif isinstance(monitored, int):
            monitored = names[:monitored]
        node_configs = (dict(zip(names, self._node_configs))
                        if self._node_configs is not None else None)
        deployment = _ShardDeployment(
            seed=self._seed, dmon=self._dmon, modules=self._modules,
            names=tuple(names), monitored=tuple(monitored),
            node_config=self._node_config,
            node_configs=node_configs)
        runtime = ShardedRuntime(plan=plan, deployment=deployment,
                                 processes=(mode == "processes"))
        self.runtime = runtime
        self._duration = duration
        if mode == "inline":
            runtime.build_worlds(duration)
            self.dprocs = runtime.dprocs
            if self._want_stream:
                from repro.stream import StreamBroker, attach_stream
                for world in runtime.worlds:
                    broker = StreamBroker(max_len=self._stream_max_len)
                    attach_stream(broker, world.bus, world.cluster)
                    self._shard_brokers.append(broker)
            if self._want_tracing:
                from repro.tracing import TraceCollector, attach_tracer
                self.tracer = (self._tracer_arg if self._tracer_arg
                               is not None
                               else TraceCollector(
                                   **self._tracer_kwargs))
                attach_tracer(runtime.nodes, self.tracer)
            if self._want_faults:
                self.faults = ShardedFaultInjector(plan,
                                                   runtime.worlds)
                for fn in self._fault_hooks:
                    fn(self)
            for fn in self._setup_hooks:
                fn(self)
            if self._want_obs:
                # One plane per shard world, merged on .obs access —
                # same shape as the per-shard stream brokers.
                for world in runtime.worlds:
                    plane, log = self._attach_obs(world.cluster,
                                                  world.env)
                    self._shard_planes.append(plane)
                    self._shard_obs_logs.append(log)
            if self._experiments:
                # Same placement rule as the unsharded path; the
                # engine lives in the observer's shard and adapts
                # remote shards through the cross-shard conduit.
                from repro.experiment import ExperimentEngine
                for exp in self._experiments:
                    if not 0 <= exp.observer < len(names):
                        raise ScenarioError(
                            f"experiment {exp.name!r} observer index "
                            f"{exp.observer} out of range")
                    observer = names[exp.observer]
                    dproc = self.dprocs.get(observer)
                    if dproc is None:
                        raise ScenarioError(
                            f"experiment {exp.name!r} observer "
                            f"{observer!r} runs no dproc")
                    world = next(w for w in runtime.worlds
                                 if observer in w.cluster.names)
                    engine = ExperimentEngine(exp, dproc, world.env)
                    self._engines.append(engine)
                    world.cluster[observer].spawn(
                        engine.ticker(),
                        name=f"experiment-{exp.name}")
        runtime.run(duration)
        return self
