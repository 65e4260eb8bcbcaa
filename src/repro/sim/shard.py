"""Sharded multi-process simulation with conservative lookahead.

The single-threaded kernel's throughput *degrades* with cluster size;
this module splits the simulated cluster into node shards — each with
its own :class:`~repro.sim.core.Environment`, fabric and KECho bus —
and advances them in lockstep windows sized by the partition's
lookahead (see :class:`~repro.sim.core.WindowScheduler`).  Cross-shard
traffic leaves the local fabric through a *conduit*: the sending
stack's :attr:`router` turns unknown destinations into
:class:`ConduitConnection` objects whose payloads are encoded with the
live backend's binary MONITOR/CONTROL codec, buffered per window, and
carried to the owning shard over a multiprocessing pipe (or handed
over in-process in inline mode).

Execution modes
---------------
``processes=True`` forks one worker per shard; the parent coordinates
barriers and routes envelopes.  Genuinely parallel on multicore hosts.

``processes=False`` (inline) runs every shard world in the calling
process, round-robin per window.  Same windowing, same event order,
same results — used by deterministic tests and by harnesses whose
hooks need a global in-process view (chaos).

Determinism: for a fixed (seed, plan) the sharded schedule is
reproducible — envelopes are injected in ``(arrival, source shard,
sequence)`` order at each barrier, and subscription changes propagate
at barriers only.  The sharded schedule is *not* the single-kernel
schedule (windows quantise cross-shard latency); ``workers=1`` paths
bypass this module entirely and stay bit-identical.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import ShardError, TransportError
from repro.kecho.channel import KechoBus
from repro.sim.core import Environment, SimEvent, WindowScheduler
from repro.sim.topology import ShardPlan
from repro.sim.transport import Message, Protocol

__all__ = ["ShardedBus", "ShardRouter", "ConduitConnection",
           "ShardSpec", "ShardWorld", "ShardResult",
           "ShardedRunResult", "run_sharded"]

#: An envelope crossing the shard boundary:
#: ``(arrival_time, src_shard, seq, dst_host, frame_bytes)``.
Envelope = tuple


class ShardedBus(KechoBus):
    """A per-shard KECho bus that merges in remote-shard subscribers.

    Local membership and dispatch work exactly as on
    :class:`KechoBus`; ``remote_subscribers`` additionally returns the
    hosts of *other* shards that subscribe to the channel, so
    publishers fan out across the boundary.  The remote view is pushed
    in at barriers by the coordinator (so it lags real subscription
    changes by at most one window) and is deterministic: shard order,
    then each shard's registry order.
    """

    def __init__(self, registry=None) -> None:
        super().__init__(registry)
        self._remote_subs: dict[str, tuple[str, ...]] = {}
        #: Bumped on *local* subscription changes only — what the
        #: worker reports to the coordinator.
        self.local_subs_version = 0
        self._reported_version = -1

    def _subscriptions_changed(self) -> None:
        super()._subscriptions_changed()
        self.local_subs_version += 1

    def set_remote_subscribers(
            self, view: dict[str, tuple[str, ...]]) -> None:
        """Replace the remote-shard subscriber view (coordinator push)."""
        if view == self._remote_subs:
            return
        self._remote_subs = view
        # Invalidate subscriber/audience caches without claiming a
        # local change.
        self.subscription_version += 1

    def local_subscriptions(self) -> dict[str, tuple[str, ...]]:
        """Channel → ordered local subscriber hosts (for the exchange)."""
        out: dict[str, tuple[str, ...]] = {}
        for name in self.registry.channels():
            subs = tuple(self._subscribers(name))
            if subs:
                out[name] = subs
        return out

    def take_local_subscriptions(self
                                 ) -> Optional[dict[str, tuple[str, ...]]]:
        """The local view if it changed since last report, else None."""
        if self.local_subs_version == self._reported_version:
            return None
        self._reported_version = self.local_subs_version
        return self.local_subscriptions()

    def remote_subscribers(self, name: str, source: str) -> list[str]:
        local = super().remote_subscribers(name, source)
        extra = self._remote_subs.get(name)
        if not extra:
            return local
        # Shards are disjoint, so remote hosts never duplicate local
        # ones; the publisher itself is always local.
        return local + list(extra)

    def has_audience(self, name: str, source: str) -> bool:
        if self._remote_subs.get(name):
            return True
        return super().has_audience(name, source)


class ConduitConnection:
    """A cross-shard logical stream: latency-only WAN-class hop.

    Mirrors the :class:`~repro.sim.transport.Connection` surface the
    KECho fan-out uses.  Sends are checked against the local fault
    plane (partitions, loss and crashes apply across the boundary),
    encoded with the live wire codec, and buffered on the router for
    the next barrier.  The conduit is latency-only — its bandwidth is
    not modelled, because the lookahead contract needs a fixed lower
    bound on delivery time, and the cut links are by construction the
    WAN/inter-cluster class whose latency dominates.
    """

    def __init__(self, router: "ShardRouter", stack, dst: str,
                 tag: str, proto: str = Protocol.TCP) -> None:
        self.router = router
        self.stack = stack
        self.src = stack.host
        self.dst = dst
        self.tag = tag
        self.proto = proto
        self.closed = False

    def send(self, payload: Any, size: float) -> SimEvent:
        if self.closed:
            raise TransportError("send on closed conduit connection")
        if size <= 0:
            raise TransportError("message size must be positive")
        return self.router.send(self, payload, float(size))

    def close(self) -> None:
        self.closed = True


class ShardRouter:
    """One shard's end of the cross-shard conduit.

    Owns the outbound buffer (drained at each barrier), injects
    inbound envelopes as local events at their arrival times, and
    answers :meth:`routes` for the stacks' connect fall-through.
    """

    def __init__(self, env: Environment, plan: ShardPlan,
                 index: int) -> None:
        self.env = env
        self.plan = plan
        self.index = index
        self.lookahead = plan.lookahead
        self._stacks: dict[str, Any] = {}
        self._outbound: list[Envelope] = []
        self._seq = 0
        self._mid = 0
        # Fan-outs submit the same event to many hosts back-to-back;
        # memoise the last encoding so the frame is built once.
        self._last_payload: Any = None
        self._last_frame: bytes | None = None
        self.conduit_tx = 0
        self.conduit_rx = 0
        self.conduit_dropped = 0

    # -- wiring ----------------------------------------------------------

    def attach(self, cluster) -> None:
        """Bind the local stacks and install the connect fall-through."""
        for node in cluster:
            self._stacks[node.name] = node.stack
            node.stack.router = self

    def routes(self, host: str) -> bool:
        try:
            return self.plan.shard_of(host) != self.index
        except Exception:
            return False

    def connect(self, stack, dst: str, tag: str,
                proto: str = Protocol.TCP) -> ConduitConnection:
        return ConduitConnection(self, stack, dst, tag, proto)

    # -- outbound --------------------------------------------------------

    def send(self, conn: ConduitConnection, payload: Any,
             size: float) -> SimEvent:
        from repro.live.codec import encode_frame
        env = self.env
        now = env.now
        stack = conn.stack
        done = env.event()
        # The local fault plane covers the boundary too: a partition
        # rule or an injected loss kills the message before the wire,
        # exactly as on the fabric path (same seeded per-node stream).
        faults = stack.fabric.faults
        if faults is not None:
            reason = None
            if faults.blocked(conn.src, conn.dst):
                reason = faults.blocked_reason(conn.src, conn.dst) \
                    or "path blocked"
            else:
                p = faults.loss_probability(conn.src, conn.dst, ())
                if p > 0.0 and stack.rng.random() < p:
                    reason = "injected loss"
            if reason is not None:
                self.conduit_dropped += 1
                drop_hook = getattr(stack, "drop_hook", None)
                if drop_hook is not None:
                    drop_hook(payload, conn.dst, reason, now)
                fail = env.timeout(0.0)
                fail.add_callback(
                    lambda _ev, r=reason: (
                        done.fail(TransportError(
                            f"conduit {conn.src}->{conn.dst} "
                            f"lost ({r})")),
                        setattr(done, "defused", True)))
                return done
        if payload is self._last_payload:
            frame = self._last_frame
        else:
            # encode_frame length-prefixes for stream transports; the
            # conduit carries whole frames, so keep the body only.
            frame = encode_frame(conn.tag, payload)[4:]
            self._last_payload = payload
            self._last_frame = frame
        seq = self._seq
        self._seq = seq + 1
        arrival = now + self.lookahead
        self._outbound.append((arrival, self.index, seq, conn.dst,
                               frame))
        self.conduit_tx += 1
        stack.bytes_out.add(now, size)
        timer = env.timeout(self.lookahead)
        timer.add_callback(lambda _ev: done.succeed(None))
        return done

    def take_outbound(self) -> list[Envelope]:
        out = self._outbound
        self._outbound = []
        self._last_payload = None
        self._last_frame = None
        return out

    # -- inbound ---------------------------------------------------------

    def inject(self, envelopes: list[Envelope]) -> None:
        """Schedule inbound envelopes (called at a barrier).

        The coordinator delivers each envelope to the window covering
        its arrival, so ``arrival >= env.now`` always holds here; the
        lookahead contract guarantees it.
        """
        env = self.env
        now = env.now
        for arrival, _src_shard, _seq, dst_host, frame in envelopes:
            if arrival < now:
                raise ShardError(
                    f"conduit event for {dst_host!r} arrives at "
                    f"{arrival}, before the window start {now} — "
                    f"lookahead violation")
            timer = env.timeout(arrival - now)
            timer.add_callback(
                lambda _ev, h=dst_host, f=frame: self._deliver(h, f))

    def _deliver(self, host: str, frame: bytes) -> None:
        from repro.live.codec import decode_frame
        stack = self._stacks.get(host)
        if stack is None:
            raise ShardError(f"conduit delivery for non-local host "
                             f"{host!r} on shard {self.index}")
        tag, event = decode_frame(frame)
        # Arrival-side fault re-check, mirroring the fabric's
        # in-flight semantics: a partition or crash that landed while
        # the bytes were crossing still kills them.
        faults = stack.fabric.faults
        if faults is not None and faults.blocked(event.source, host):
            self.conduit_dropped += 1
            drop_hook = getattr(stack, "drop_hook", None)
            if drop_hook is not None:
                # The sender's completion succeeded a window ago: this
                # kill is arrival-side only, invisible to the
                # publisher's failed-delivery counter.
                drop_hook(event, host,
                          faults.blocked_reason(event.source, host)
                          or "path blocked",
                          self.env.now, sender_failed=False)
            return
        self.conduit_rx += 1
        self._mid += 1
        msg = Message(mid=-self._mid, src=event.source, dst=host,
                      tag=tag, payload=event, size=event.size,
                      sent_at=event.submitted_at)
        msg.delivered_at = self.env.now
        stack._receive(msg)


@dataclass
class ShardSpec:
    """Everything a worker needs to build its world."""

    plan: ShardPlan
    index: int
    #: Caller-defined configuration for the builder (kept picklable
    #: when using the spawn start method; under fork anything goes).
    payload: Any = None

    @property
    def local_names(self) -> tuple[str, ...]:
        return self.plan.shards[self.index]


@dataclass
class ShardWorld:
    """One shard's built simulation, as returned by a builder."""

    env: Environment
    router: ShardRouter
    bus: ShardedBus
    cluster: Any = None
    dprocs: Optional[dict] = None
    #: Optional ``harvest(world) -> dict`` collected into the shard's
    #: result at the end of the run (telemetry counters, reports).
    harvest: Optional[Callable[["ShardWorld"], dict]] = None

    # The :class:`repro.runtime.protocol.World` names for the above.
    nodes = property(lambda self: self.cluster)
    clock = property(lambda self: self.env)


@dataclass
class ShardResult:
    """Per-shard accounting returned by :func:`run_sharded`."""

    index: int
    n_nodes: int
    events_processed: int
    #: Worker process CPU seconds over the advance loop (run only,
    #: build excluded) — the critical-path capacity denominator.
    cpu_seconds: float
    conduit_tx: int
    conduit_rx: int
    conduit_dropped: int
    extra: Optional[dict] = None


@dataclass
class ShardedRunResult:
    """Whole-run accounting for one sharded execution."""

    duration: float
    lookahead: float
    n_shards: int
    windows: int
    events_processed: int
    conduit_messages: int
    coordinator_cpu_seconds: float
    processes: bool
    #: Wall seconds building the shard worlds (until every worker is
    #: ready) and driving the window loop.  Timing only — never fed
    #: back into the simulation, so determinism is unaffected.
    build_wall_seconds: float = 0.0
    run_wall_seconds: float = 0.0
    shards: list[ShardResult] = field(default_factory=list)


# -- worker side ----------------------------------------------------------


def _world_result(world: ShardWorld, spec: ShardSpec,
                  cpu_seconds: float) -> dict:
    router = world.router
    return {
        "index": spec.index,
        "n_nodes": len(spec.local_names),
        "events_processed": world.env.events_processed,
        "cpu_seconds": cpu_seconds,
        "conduit_tx": router.conduit_tx,
        "conduit_rx": router.conduit_rx,
        "conduit_dropped": router.conduit_dropped,
        "extra": world.harvest(world) if world.harvest else None,
    }


def _advance(world: ShardWorld, barrier: float,
             envelopes: list[Envelope],
             remote_subs: Optional[dict]) -> tuple:
    """Run one window; returns the worker's reply tuple."""
    if remote_subs is not None:
        world.bus.set_remote_subscribers(remote_subs)
    if envelopes:
        world.router.inject(envelopes)
    world.env.run(until=barrier)
    return (world.env.peek(), world.router.take_outbound(),
            world.bus.take_local_subscriptions(),
            world.env.events_processed)


def _shard_worker(spec: ShardSpec, builder, conn) -> None:
    """Worker process main: build, window loop, result."""
    try:
        world = builder(spec)
        conn.send(("ready", world.bus.local_subscriptions(),
                   world.env.peek()))
        cpu0 = time.process_time()
        while True:
            msg = conn.recv()
            if msg[0] == "finish":
                break
            _kind, barrier, envelopes, remote_subs = msg
            conn.send(("window",)
                      + _advance(world, barrier, envelopes, remote_subs))
        cpu = time.process_time() - cpu0
        conn.send(("result", _world_result(world, spec, cpu)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


# -- coordinator-side shard handles ---------------------------------------


class _InlineShard:
    """A shard world driven in-process (deterministic, fork-free)."""

    def __init__(self, spec: ShardSpec, builder,
                 world: Optional[ShardWorld] = None) -> None:
        self.spec = spec
        self.world = world if world is not None else builder(spec)
        self.cpu_seconds = 0.0
        self._reply: Optional[tuple] = None

    def ready(self) -> tuple:
        return (self.world.bus.local_subscriptions(),
                self.world.env.peek())

    def post(self, barrier: float, envelopes: list[Envelope],
             remote_subs: Optional[dict]) -> None:
        t0 = time.process_time()
        self._reply = _advance(self.world, barrier, envelopes,
                               remote_subs)
        self.cpu_seconds += time.process_time() - t0
    def wait(self) -> tuple:
        reply, self._reply = self._reply, None
        return reply

    def finish(self) -> dict:
        return _world_result(self.world, self.spec, self.cpu_seconds)

    def close(self) -> None:
        pass


class _ProcShard:
    """A shard world in a forked worker, driven over a pipe."""

    def __init__(self, spec: ShardSpec, builder, ctx) -> None:
        self.spec = spec
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_worker, args=(spec, builder, child),
            name=f"shard-{spec.index}", daemon=True)
        self._proc.start()
        child.close()

    def _recv(self, expect: str) -> tuple:
        try:
            msg = self._conn.recv()
        except EOFError:
            raise ShardError(
                f"shard {self.spec.index} worker died (exit code "
                f"{self._proc.exitcode})") from None
        if msg[0] == "error":
            raise ShardError(
                f"shard {self.spec.index} worker failed:\n{msg[1]}")
        if msg[0] != expect:
            raise ShardError(
                f"shard {self.spec.index}: expected {expect!r}, got "
                f"{msg[0]!r}")
        return msg[1:]

    def ready(self) -> tuple:
        return self._recv("ready")

    def post(self, barrier: float, envelopes: list[Envelope],
             remote_subs: Optional[dict]) -> None:
        self._conn.send(("advance", barrier, envelopes, remote_subs))

    def wait(self) -> tuple:
        return self._recv("window")

    def finish(self) -> dict:
        self._conn.send(("finish",))
        return self._recv("result")[0]

    def close(self) -> None:
        try:
            self._conn.close()
        except Exception:
            pass
        self._proc.join(timeout=10)
        if self._proc.is_alive():
            self._proc.terminate()


# -- the coordinator ------------------------------------------------------


def _merged_remote_views(plan: ShardPlan,
                         local: list[dict]) -> list[dict]:
    """Per-shard remote-subscriber views, deterministically ordered."""
    views: list[dict] = []
    for i in range(plan.n_shards):
        view: dict[str, tuple[str, ...]] = {}
        for j, subs in enumerate(local):
            if j == i:
                continue
            for name, hosts in subs.items():
                view[name] = view.get(name, ()) + tuple(hosts)
        views.append(view)
    return views


def run_sharded(plan: ShardPlan, duration: float,
                builder: Callable[[ShardSpec], ShardWorld],
                *, payloads: Optional[list] = None,
                processes: bool = True,
                worlds: Optional[list[ShardWorld]] = None
                ) -> ShardedRunResult:
    """Run one sharded simulation for ``duration`` simulated seconds.

    ``builder(spec)`` constructs each shard's world (in the worker
    process when ``processes`` is true).  ``payloads`` optionally
    supplies ``spec.payload`` per shard; ``worlds`` hands over
    pre-built worlds (inline mode only — the caller keeps in-process
    access, as the chaos harness needs).
    """
    if duration <= 0:
        raise ShardError("duration must be positive")
    n = plan.n_shards
    if payloads is not None and len(payloads) != n:
        raise ShardError("payloads/shards length mismatch")
    specs = [ShardSpec(plan=plan, index=i,
                       payload=payloads[i] if payloads else None)
             for i in range(n)]
    if worlds is not None:
        if processes:
            raise ShardError(
                "pre-built worlds only run inline (processes=False)")
        if len(worlds) != n:
            raise ShardError("worlds/shards length mismatch")
        shards: list = [_InlineShard(s, builder, world=w)
                        for s, w in zip(specs, worlds)]
    elif processes and n > 1:
        import multiprocessing as mp
        try:
            ctx = mp.get_context("fork")
        except ValueError:
            ctx = None
        if ctx is None:
            shards = [_InlineShard(s, builder) for s in specs]
            processes = False
        else:
            shards = [_ProcShard(s, builder, ctx) for s in specs]
    else:
        shards = [_InlineShard(s, builder) for s in specs]
        processes = False

    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    result = ShardedRunResult(
        duration=float(duration), lookahead=plan.lookahead,
        n_shards=n, windows=0, events_processed=0, conduit_messages=0,
        coordinator_cpu_seconds=0.0, processes=processes)
    try:
        local_subs: list[dict] = [None] * n
        peeks: list[float] = [float("inf")] * n
        for i, shard in enumerate(shards):
            local_subs[i], peeks[i] = shard.ready()
        result.build_wall_seconds = time.perf_counter() - wall0
        wall1 = time.perf_counter()
        views = _merged_remote_views(plan, local_subs)
        dirty = [True] * n
        pending: list[list[Envelope]] = [[] for _ in range(n)]
        scheduler = WindowScheduler(plan.lookahead, float(duration))
        now = 0.0
        while now < duration:
            arrivals = [e[0] for q in pending for e in q]
            barrier = scheduler.next_barrier(now, peeks, arrivals)
            for i, shard in enumerate(shards):
                batch = [e for e in pending[i] if e[0] < barrier]
                if batch:
                    pending[i] = [e for e in pending[i]
                                  if e[0] >= barrier]
                    batch.sort(key=lambda e: (e[0], e[1], e[2]))
                shard.post(barrier, batch,
                           views[i] if dirty[i] else None)
                dirty[i] = False
            subs_changed = False
            for i, shard in enumerate(shards):
                peeks[i], outbound, subs, _events = shard.wait()
                for env_tuple in outbound:
                    dst = plan.shard_of(env_tuple[3])
                    pending[dst].append(env_tuple)
                    result.conduit_messages += 1
                if subs is not None and subs != local_subs[i]:
                    local_subs[i] = subs
                    subs_changed = True
            if subs_changed:
                views = _merged_remote_views(plan, local_subs)
                dirty = [True] * n
            now = barrier
        result.run_wall_seconds = time.perf_counter() - wall1
        result.windows = scheduler.windows
        for shard in shards:
            r = shard.finish()
            result.shards.append(ShardResult(
                index=r["index"], n_nodes=r["n_nodes"],
                events_processed=r["events_processed"],
                cpu_seconds=r["cpu_seconds"],
                conduit_tx=r["conduit_tx"],
                conduit_rx=r["conduit_rx"],
                conduit_dropped=r["conduit_dropped"],
                extra=r["extra"]))
            result.events_processed += r["events_processed"]
    finally:
        for shard in shards:
            shard.close()
    result.coordinator_cpu_seconds = time.process_time() - cpu0
    if not processes:
        # Inline shards burn their CPU in this process; keep the
        # coordinator number to what coordination itself cost.
        result.coordinator_cpu_seconds = max(
            0.0, result.coordinator_cpu_seconds
            - sum(s.cpu_seconds for s in result.shards))
    return result
