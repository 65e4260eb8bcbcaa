"""Link and flow primitives for the fluid network model.

The network is modelled with *fluid flows* over capacitated links:

* A :class:`Link` is a unidirectional capacity (bytes/s) with a
  propagation latency and two byte totals (carried, dropped).
* A :class:`Flow` is either **fixed-rate** (open-loop UDP-style traffic
  that does not back off; it is scaled down only when its links cannot
  carry the offered load, the excess being *lost*) or **elastic**
  (a discrete reliable transfer of ``remaining`` bytes that takes a
  max-min fair share of whatever the fixed flows leave over).

The allocator in :func:`allocate_rates` implements the classic two-stage
scheme: proportional scaling for fixed flows, then progressive filling
(water-filling) for elastic flows on the residual capacities.

Scalability: the allocator runs on every flow add/remove/completion, so
its cost dominates large-cluster simulations.  :func:`allocate_rates`
therefore works from a :class:`FlowIndex` — per-link flow maps that a
caller (the :class:`~repro.sim.network.Fabric`) maintains incrementally
across calls instead of rebuilding them from scratch on each
reallocation.  ``tests/sim/test_link_allocator_equivalence.py`` holds
the map-rebuilding allocator this one replaced and asserts the two
agree on randomized topologies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.errors import NetworkError

__all__ = ["Link", "Flow", "FlowKind", "FlowIndex", "allocate_rates",
           "settle_flows", "ELASTIC_FLOOR_FRACTION"]

_link_ids = itertools.count(1)
_flow_ids = itertools.count(1)

#: Minimum share of a link's capacity an elastic flow can be squeezed to.
#: Models the trickle a reliable stream still achieves under open-loop
#: overload (header compression, retries); prevents infinite stalls.
ELASTIC_FLOOR_FRACTION = 0.01


class FlowKind(Enum):
    """Traffic classes distinguished by the allocator."""

    FIXED = "fixed"       # open-loop, rate-limited at the source (UDP)
    ELASTIC = "elastic"   # closed-loop reliable transfer (TCP-like)


class Link:
    """One direction of a physical link (or a shared segment)."""

    def __init__(self, name: str, capacity: float,
                 latency: float = 0.0) -> None:
        if capacity <= 0:
            raise NetworkError(f"link {name!r} needs positive capacity")
        if latency < 0:
            raise NetworkError(f"link {name!r} latency cannot be negative")
        self.lid = next(_link_ids)
        self.name = name
        self.capacity = float(capacity)   # bytes per second
        self.latency = float(latency)     # seconds, one-way
        #: Cumulative bytes carried by every flow crossing this link.
        self.carried_bytes = 0.0
        #: Bytes offered by fixed flows but not carried (dropped).
        self.dropped_bytes = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.capacity * 8 / 1e6:.0f}Mbps>"


@dataclass
class Flow:
    """A unidirectional traffic flow across a path of links."""

    path: tuple[Link, ...]
    kind: FlowKind
    #: Offered rate for FIXED flows (bytes/s); ignored for ELASTIC.
    demand: float = 0.0
    #: Bytes still to move for ELASTIC flows; ignored for FIXED.
    remaining: float = 0.0
    name: str = "flow"
    #: Called with the flow once its last byte has arrived (ELASTIC only).
    on_done: Optional[Callable[["Flow"], None]] = None
    #: What the transfer carries, for ``on_done`` to read back.
    cargo: Any = None
    #: Current allocated rate (bytes/s), set by the allocator.
    rate: float = field(default=0.0, init=False)
    fid: int = field(default_factory=lambda: next(_flow_ids), init=False)
    #: Cumulative bytes actually carried.
    carried_bytes: float = field(default=0.0, init=False)
    #: Cumulative bytes lost (FIXED flows under overload).
    lost_bytes: float = field(default=0.0, init=False)
    #: Guaranteed minimum rate for ELASTIC flows (precomputed).
    floor: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if not self.path:
            raise NetworkError(f"flow {self.name!r} has an empty path")
        if self.kind is FlowKind.FIXED and self.demand <= 0:
            raise NetworkError("fixed flow needs a positive demand")
        if self.kind is FlowKind.ELASTIC:
            if self.remaining <= 0:
                raise NetworkError("elastic flow needs positive bytes")
            self.floor = ELASTIC_FLOOR_FRACTION * min(
                link.capacity for link in self.path)

    @property
    def loss_fraction(self) -> float:
        """Fraction of the offered fixed-rate load currently being lost."""
        if self.kind is not FlowKind.FIXED or self.demand <= 0:
            return 0.0
        return max(0.0, 1.0 - self.rate / self.demand)

    @property
    def path_latency(self) -> float:
        """Sum of one-way propagation latencies along the path."""
        return sum(link.latency for link in self.path)


class FlowIndex:
    """Per-link flow maps maintained incrementally across reallocations.

    The index keeps, for every link id, insertion-ordered maps of the
    fixed and elastic flows whose paths cross that link.  Keeping these
    maps current on flow add/remove (O(path) per change) lets
    :func:`allocate_rates` skip the O(flows × path) map rebuild it
    would otherwise repeat on every call, and makes "traffic crossing
    one link" queries proportional to that link's population rather
    than to the whole cluster's flow count.
    """

    __slots__ = ("fixed", "elastic", "fixed_by_link", "elastic_by_link")

    def __init__(self, flows: Iterable[Flow] = ()) -> None:
        #: Insertion-ordered maps fid -> Flow by traffic class.
        self.fixed: dict[int, Flow] = {}
        self.elastic: dict[int, Flow] = {}
        #: Per-link insertion-ordered maps fid -> Flow.
        self.fixed_by_link: dict[int, dict[int, Flow]] = {}
        self.elastic_by_link: dict[int, dict[int, Flow]] = {}
        for flow in flows:
            self.add(flow)

    def add(self, flow: Flow) -> None:
        if flow.kind is FlowKind.FIXED:
            flows, by_link = self.fixed, self.fixed_by_link
        else:
            flows, by_link = self.elastic, self.elastic_by_link
        if flow.fid in flows:
            raise NetworkError(f"flow {flow.name!r} already indexed")
        flows[flow.fid] = flow
        for link in flow.path:
            per_link = by_link.get(link.lid)
            if per_link is None:
                per_link = by_link[link.lid] = {}
            per_link[flow.fid] = flow

    def remove(self, flow: Flow) -> None:
        if flow.kind is FlowKind.FIXED:
            flows, by_link = self.fixed, self.fixed_by_link
        else:
            flows, by_link = self.elastic, self.elastic_by_link
        if flows.pop(flow.fid, None) is None:
            raise NetworkError(f"flow {flow.name!r} is not indexed")
        for link in flow.path:
            by_link[link.lid].pop(flow.fid, None)

    def __len__(self) -> int:
        return len(self.fixed) + len(self.elastic)

    def flows(self) -> list[Flow]:
        """All indexed flows (fixed first, then elastic, in add order)."""
        return [*self.fixed.values(), *self.elastic.values()]

    # -- per-link aggregate queries ----------------------------------------

    def allocated_on(self, link: Link) -> float:
        """Sum of currently allocated rates crossing ``link``."""
        lid = link.lid
        total = 0.0
        per_link = self.fixed_by_link.get(lid)
        if per_link:
            for f in per_link.values():
                total += f.rate
        per_link = self.elastic_by_link.get(lid)
        if per_link:
            for f in per_link.values():
                total += f.rate
        return total

    def offered_on(self, link: Link) -> float:
        """Sum of fixed-flow demands crossing ``link``."""
        per_link = self.fixed_by_link.get(link.lid)
        if not per_link:
            return 0.0
        return sum(f.demand for f in per_link.values())

    def flows_on(self, link: Link) -> list[Flow]:
        """All indexed flows whose path crosses ``link``."""
        out = list(self.fixed_by_link.get(link.lid, {}).values())
        out.extend(self.elastic_by_link.get(link.lid, {}).values())
        return out


def allocate_rates(flows: Iterable[Flow],
                   index: Optional[FlowIndex] = None) -> None:
    """Assign ``flow.rate`` for every flow, in place.

    Stage 1 — fixed flows: each starts at its demand and is repeatedly
    scaled down on the single most-oversubscribed link; only the links
    touched by the scaled flows have their load recomputed (the
    reference implementation rebuilt every map on every iteration).

    Stage 2 — elastic flows: progressive filling of the residual
    capacity.  Repeatedly find the bottleneck link (smallest equal
    share), freeze its flows at that share, and continue with the rest.
    Every elastic flow additionally receives at least
    ``ELASTIC_FLOOR_FRACTION`` of its tightest link's capacity
    (precomputed per flow as ``Flow.floor``).

    ``index`` may carry a :class:`FlowIndex` already covering exactly
    ``flows``; callers that mutate the flow set incrementally (the
    Fabric) pass their long-lived index so no per-call map rebuild is
    needed.  Without it a transient index is built from ``flows``.
    """
    if index is None:
        index = FlowIndex(flows)
    fixed = index.fixed
    elastic = index.elastic
    if not fixed and not elastic:
        return

    # -- stage 1: fixed flows ------------------------------------------------
    if fixed:
        fixed_by_link = index.fixed_by_link
        load: dict[int, float] = {}
        caps: dict[int, float] = {}
        for f in fixed.values():
            f.rate = f.demand
        for f in fixed.values():
            rate = f.rate
            for link in f.path:
                lid = link.lid
                if lid in load:
                    load[lid] += rate
                else:
                    load[lid] = rate
                    caps[lid] = link.capacity
        for _ in range(64):  # iterative proportional scaling
            # Scale the single most-oversubscribed link, then re-derive
            # the load on the links its flows touch — scaling several
            # links in one pass would shrink a flow once per link it
            # crosses instead of once overall.
            worst_lid, worst_ratio = None, 1.0 + 1e-12
            for lid, total in load.items():
                ratio = total / caps[lid]
                if ratio > worst_ratio:
                    worst_lid, worst_ratio = lid, ratio
            if worst_lid is None:
                break
            touched: dict[int, bool] = {}
            for f in fixed_by_link[worst_lid].values():
                f.rate /= worst_ratio
                for link in f.path:
                    touched[link.lid] = True
            for lid in touched:
                load[lid] = sum(
                    f.rate for f in fixed_by_link[lid].values())

    # -- stage 2: elastic flows on the residual -----------------------------
    if not elastic:
        return
    residual: dict[int, float] = {}
    count: dict[int, int] = {}
    for f in elastic.values():
        for link in f.path:
            lid = link.lid
            if lid in residual:
                count[lid] += 1
            else:
                residual[lid] = link.capacity
                count[lid] = 1
    if fixed:
        fixed_by_link = index.fixed_by_link
        for lid in residual:
            per_link = fixed_by_link.get(lid)
            if per_link:
                r = residual[lid]
                for f in per_link.values():
                    r -= f.rate
                    if r < 0.0:
                        r = 0.0
                residual[lid] = r

    elastic_by_link = index.elastic_by_link
    active = set(elastic)
    while active:
        # The bottleneck offers the smallest equal share to its
        # remaining elastic flows.
        bottleneck = None
        share = 0.0
        for lid, c in count.items():
            if c > 0:
                s = residual[lid] / c
                if bottleneck is None or s < share:
                    bottleneck, share = lid, s
        if bottleneck is None:
            break
        frozen = [f for fid, f in elastic_by_link[bottleneck].items()
                  if fid in active]
        if not frozen:  # pragma: no cover - defensive
            break
        for flow in frozen:
            floor = flow.floor
            flow.rate = share if share > floor else floor
            active.discard(flow.fid)
            for link in flow.path:
                lid = link.lid
                r = residual[lid] - share
                residual[lid] = r if r > 0.0 else 0.0
                count[lid] -= 1


def settle_flows(flows: Sequence[Flow], dt: float) -> None:
    """Advance byte accounting for ``dt`` seconds at current rates."""
    if dt < 0:
        raise NetworkError("cannot settle a negative interval")
    if dt == 0:
        return
    for f in flows:
        moved = f.rate * dt
        if f.kind is FlowKind.ELASTIC:
            moved = min(moved, f.remaining)
            f.remaining -= moved
        else:
            f.lost_bytes += max(0.0, (f.demand - f.rate)) * dt
        f.carried_bytes += moved
