"""Switched-Ethernet fabric built on the fluid link model.

Topology (matching the paper's testbed): every host has a full-duplex
access link (TX + RX, 100 Mbps each) into an ideal switch.  Hosts can
optionally sit behind a *shared segment* — an extra link that all their
traffic traverses — which is how the Fig 10 experiment ("two nodes
sharing a link between client and server") is reproduced.

The fabric is event-driven: whenever the flow set changes it settles
byte progress, recomputes all rates with the max-min allocator, and
re-arms a single completion timer for the earliest-finishing elastic
flow.  An elastic transfer calls its ``on_done(flow)`` after the path's
propagation latency.  The flows one reallocation finishes arrive as
groups, one per arrival instant: each group costs one propagation timer
and one zero-delay arrival event, whose callback calls every ``on_done``
of the group in finish order (docs/architecture.md §8).

Scalability: the fabric keeps a :class:`~repro.sim.link.FlowIndex`
current across flow churn so each reallocation skips the per-call map
rebuild, caches host-pair paths, and supports *batched* flow updates
(:meth:`Fabric.batch`) so a publish fanning out to hundreds of
subscribers triggers one reallocation instead of one per target.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import NetworkError, RoutingError
from repro.sim.core import Environment
from repro.sim.link import (Flow, FlowIndex, FlowKind, Link,
                            allocate_rates, settle_flows)
from repro.units import mbps, usec

__all__ = ["Fabric", "HostPort", "SharedSegment", "FixedFlowHandle"]


@dataclass
class SharedSegment:
    """A shared collision/backbone domain hosts can be attached behind."""

    name: str
    link: Link


class HostPort:
    """A host's attachment point: one TX and one RX link to the switch."""

    def __init__(self, name: str, tx: Link, rx: Link,
                 segment: Optional[SharedSegment] = None) -> None:
        self.name = name
        self.tx = tx
        self.rx = rx
        self.segment = segment

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        seg = f" via {self.segment.name}" if self.segment else ""
        return f"<HostPort {self.name}{seg}>"


class FixedFlowHandle:
    """Handle for an open-loop fixed-rate flow (close it to stop)."""

    def __init__(self, fabric: "Fabric", flow: Flow) -> None:
        self._fabric = fabric
        self.flow = flow
        self.opened_at = fabric.env.now
        self.closed = False

    @property
    def rate(self) -> float:
        """Currently carried rate (bytes/s)."""
        self._fabric._settle()
        return self.flow.rate

    @property
    def loss_fraction(self) -> float:
        self._fabric._settle()
        return self.flow.loss_fraction

    def close(self) -> None:
        """Stop offering traffic (idempotent)."""
        if not self.closed:
            self.closed = True
            self._fabric._remove_flow(self.flow)


class Fabric:
    """The cluster's switched network."""

    def __init__(self, env: Environment,
                 access_capacity: float = mbps(100),
                 access_latency: float = usec(50),
                 switch_latency: float = usec(10)) -> None:
        self.env = env
        self.access_capacity = float(access_capacity)
        self.access_latency = float(access_latency)
        self.switch_latency = float(switch_latency)
        self.hosts: dict[str, HostPort] = {}
        self.segments: dict[str, SharedSegment] = {}
        #: Transport endpoint of each host: the one peer directory
        #: every ``NetStack`` on this fabric registers in and delivers
        #: through.
        self.stacks: dict[str, Any] = {}
        #: Attached fault state (set by ``repro.sim.faults.FaultInjector``);
        #: ``None`` means a fault-free fabric and zero added overhead.
        self.faults = None
        #: Live flows in add order (fid -> Flow; O(1) removal).
        self._flows: dict[int, Flow] = {}
        #: Per-link flow maps, kept current across flow churn.
        self._index = FlowIndex()
        self._path_cache: dict[tuple[str, str], tuple[Link, ...]] = {}
        self._last_settle = env.now
        self._timer_generation = 0
        self._batch_depth = 0

    # -- topology ------------------------------------------------------------

    def add_segment(self, name: str,
                    capacity: float | None = None,
                    latency: float = 0.0) -> SharedSegment:
        """Create a shared segment hosts can be attached behind."""
        if name in self.segments:
            raise NetworkError(f"segment {name!r} already exists")
        cap = self.access_capacity if capacity is None else capacity
        seg = SharedSegment(name, Link(f"seg:{name}", cap, latency))
        self.segments[name] = seg
        return seg

    def add_host(self, name: str,
                 capacity: float | None = None,
                 segment: SharedSegment | str | None = None) -> HostPort:
        """Attach a host with a full-duplex access link."""
        if name in self.hosts:
            raise NetworkError(f"host {name!r} already attached")
        cap = self.access_capacity if capacity is None else capacity
        if isinstance(segment, str):
            try:
                segment = self.segments[segment]
            except KeyError:
                raise RoutingError(f"unknown segment {segment!r}") from None
        port = HostPort(
            name,
            tx=Link(f"{name}:tx", cap, self.access_latency),
            rx=Link(f"{name}:rx", cap, self.access_latency),
            segment=segment,
        )
        self.hosts[name] = port
        return port

    def path(self, src: str, dst: str) -> tuple[Link, ...]:
        """Links traversed from ``src`` to ``dst`` (TX, segments, RX)."""
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return cached
        if src == dst:
            raise RoutingError(f"no self-path for host {src!r}")
        try:
            sport, dport = self.hosts[src], self.hosts[dst]
        except KeyError as exc:
            raise RoutingError(f"unknown host {exc.args[0]!r}") from None
        links: list[Link] = [sport.tx]
        # Traffic crossing in or out of a segment traverses it once; two
        # hosts on the same segment also share it.
        segs = []
        if sport.segment is not None:
            segs.append(sport.segment.link)
        if dport.segment is not None and (
                sport.segment is None
                or dport.segment.link is not sport.segment.link):
            segs.append(dport.segment.link)
        links.extend(segs)
        links.append(dport.rx)
        result = tuple(links)
        self._path_cache[(src, dst)] = result
        return result

    # -- traffic -------------------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: float,
                 on_done: Callable[[Flow], None], name: str = "xfer",
                 cargo: Any = None) -> Flow:
        """Start a reliable elastic transfer of ``nbytes``; return its flow.

        ``on_done(flow)`` is called once the last byte has been
        serialised *and* propagated (path latency + switch), from the
        one arrival event of every flow that lands at that instant
        (``cargo`` rides on the flow for the callback to read).
        """
        if nbytes <= 0:
            raise NetworkError("transfer size must be positive")
        links = self.path(src, dst)
        flow = Flow(path=links, kind=FlowKind.ELASTIC,
                    remaining=float(nbytes), name=name, on_done=on_done,
                    cargo=cargo)
        self._add_flow(flow)
        return flow

    def open_fixed_flow(self, src: str, dst: str, demand: float,
                        name: str = "udp") -> FixedFlowHandle:
        """Open an open-loop fixed-rate flow (UDP-style perturbation)."""
        links = self.path(src, dst)
        flow = Flow(path=links, kind=FlowKind.FIXED,
                    demand=float(demand), name=name)
        self._add_flow(flow)
        return FixedFlowHandle(self, flow)

    @contextmanager
    def batch(self):
        """Group several flow additions/removals into one reallocation.

        All changes inside the ``with`` block happen at the same
        simulated instant (no events are processed mid-callback), so
        settling once on entry and reallocating once on exit is
        equivalent to — and much cheaper than — reallocating per
        change.  Batches nest; only the outermost one reallocates.
        """
        if self._batch_depth == 0:
            self._settle()
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self._reallocate()

    def flows_through(self, link: Link) -> list[Flow]:
        """All live flows whose path includes ``link``."""
        return self._index.flows_on(link)

    def available_bandwidth(self, src: str, dst: str) -> float:
        """Instantaneous residual capacity on the src→dst path.

        This is what NET_MON reports as 'available bandwidth': the
        tightest link's capacity minus its currently allocated rates.
        """
        self._settle()
        index = self._index
        best = math.inf
        for link in self.path(src, dst):
            used = index.allocated_on(link)
            free = link.capacity - used
            best = min(best, free if free > 0.0 else 0.0)
        return best

    def link_congestion(self, link: Link) -> float:
        """Fractional load on one link: max(allocated, offered)/capacity."""
        index = self._index
        used = index.allocated_on(link)
        offered = index.offered_on(link)
        return (used if used > offered else offered) / link.capacity

    def settle(self) -> None:
        """Bring all flow/link byte accounting up to the current instant."""
        self._settle()

    # -- internals ------------------------------------------------------------

    def _add_flow(self, flow: Flow) -> None:
        if self._batch_depth == 0:
            self._settle()
        self._flows[flow.fid] = flow
        self._index.add(flow)
        if self._batch_depth == 0:
            self._reallocate()

    def _remove_flow(self, flow: Flow) -> None:
        if self._batch_depth == 0:
            self._settle()
        if self._flows.pop(flow.fid, None) is None:
            raise NetworkError("flow is not live")
        self._index.remove(flow)
        if self._batch_depth == 0:
            self._reallocate()

    def _settle(self) -> None:
        """Advance all flow byte counters to ``env.now``."""
        now = self.env.now
        dt = now - self._last_settle
        if dt <= 0:
            self._last_settle = now
            return
        flows = self._flows.values()
        settle_flows(flows, dt)
        for f in flows:
            carried = f.rate * dt
            if f.kind is FlowKind.FIXED and f.demand > f.rate:
                dropped = (f.demand - f.rate) * dt
                for link in f.path:
                    link.carried_bytes += carried
                    link.dropped_bytes += dropped
            else:
                for link in f.path:
                    link.carried_bytes += carried
        self._last_settle = now

    def _reallocate(self) -> None:
        """Recompute rates and re-arm the completion timer."""
        flows = self._flows
        index = self._index
        allocate_rates(flows.values(), index=index)
        # Finish elastic flows that have drained, grouped by arrival
        # instant (the float each flow's own timer would land on): one
        # propagation timer per group.
        finished = [f for f in index.elastic.values()
                    if f.remaining <= 1e-6]
        if finished:
            env = self.env
            now = env.now
            arrivals: dict[float, list[Flow]] = {}
            for f in finished:
                del flows[f.fid]
                index.remove(f)
                latency = f.path_latency + self.switch_latency
                when = now + latency
                group = arrivals.get(when)
                if group is None:
                    group = arrivals[when] = []
                    env.timeout(latency).add_callback(
                        lambda _ev, g=group: self._propagated(g))
                group.append(f)
            allocate_rates(flows.values(), index=index)

        self._timer_generation += 1
        eta = math.inf
        for f in index.elastic.values():
            rate = f.rate
            if rate > 0:
                t = f.remaining / rate
                if t < eta:
                    eta = t
        if math.isinf(eta):
            return
        generation = self._timer_generation
        timer = self.env.timeout(eta)
        timer.add_callback(lambda _ev: self._on_timer(generation))

    def _on_timer(self, generation: int) -> None:
        if generation != self._timer_generation:
            return
        self._settle()
        self._reallocate()

    def _propagated(self, group: list[Flow]) -> None:
        """A group's last bytes have propagated: deliver it through one
        zero-delay arrival event, so its ``on_done`` calls run behind
        every event already queued for this instant (not from this
        timer, which would run them ahead of such events;
        docs/architecture.md §8)."""
        arrival = self.env.event()
        arrival.add_callback(lambda _ev: _arrive(group))
        arrival.succeed()


def _arrive(group: list[Flow]) -> None:
    for flow in group:
        flow.on_done(flow)
