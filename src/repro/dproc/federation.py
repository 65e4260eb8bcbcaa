"""Wide-area grid federation of dproc sites (the paper's future work).

"Our future work will focus on using dproc in wide-area grids …"
(paper §5).  This module federates independent dproc clusters over
simulated WAN links:

* each *site* is a cluster with its own dproc deployment and a
  designated **gateway** node;
* gateways periodically condense their site's state into a
  :class:`SiteSummary` (over the hosts the gateway's
  :class:`~repro.dproc.aggregate.ClusterView` counts fresh) and
  exchange summaries with peer gateways over :class:`WanLink`
  connections — FIFO pipes with WAN-scale latency and limited
  bandwidth;
* remote sites appear on the gateway's /proc tree under
  ``/proc/grid/<site>/...``, mirroring how remote *nodes* appear under
  ``/proc/cluster``.

Summaries, not raw streams, cross the WAN: the intra-site monitoring
rate never leaves the site, which is the point of a hierarchical
design at grid scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.dproc.aggregate import ClusterView
from repro.dproc.metrics import MetricId
from repro.dproc.procfs import ProcFile
from repro.dproc.toolkit import Dproc
from repro.errors import DprocError, NetworkError
from repro.sim.cluster import Cluster
from repro.sim.core import Environment, Process
from repro.sim.node import Node
from repro.sim.stores import Store
from repro.units import mbps, msec

__all__ = ["SiteSummary", "WanLink", "Site", "GridFederation"]

#: Encoded size of one site summary on the WAN (bytes).
SUMMARY_BYTES = 160.0


@dataclass
class SiteSummary:
    """Condensed state of one site, as shipped across the WAN."""

    site: str
    n_nodes: int
    mean_loadavg: float
    total_free_bytes: float
    max_diskusage: float
    min_net_bandwidth: float
    generated_at: float
    received_at: Optional[float] = None

    FIELDS = ("n_nodes", "mean_loadavg", "total_free_bytes",
              "max_diskusage", "min_net_bandwidth")


class WanLink:
    """A FIFO wide-area pipe between two gateway nodes.

    Messages serialise at ``bandwidth`` and arrive after ``latency``;
    both gateways pay the usual kernel messaging costs.

    WAN links fail: while the link is marked down (``down``)
    or the destination gateway is down (the ``node_down`` probe, wired
    to the fault plane by :meth:`GridFederation.connect`), deliveries
    are retried with exponential backoff — ``retry_initial`` doubling
    up to ``retry_max`` seconds — instead of being dropped, so site
    summaries resume on their own after a WAN outage heals.
    """

    def __init__(self, env: Environment, a: Node, b: Node,
                 bandwidth: float = mbps(10),
                 latency: float = msec(40),
                 retry_initial: float = 0.5,
                 retry_max: float = 8.0,
                 node_down: Optional[Callable[[str], bool]] = None)\
            -> None:
        if bandwidth <= 0 or latency < 0:
            raise NetworkError("invalid WAN link parameters")
        if retry_initial <= 0 or retry_max < retry_initial:
            raise NetworkError("invalid WAN retry parameters")
        if a.name == b.name:
            raise NetworkError(
                f"WAN endpoints need distinct node names, both are "
                f"{a.name!r} — name federated sites' nodes uniquely")
        self.env = env
        self.endpoints = {a.name: a, b.name: b}
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.retry_initial = float(retry_initial)
        self.retry_max = float(retry_max)
        #: True while the named gateway is unreachable (defaults to
        #: never; GridFederation wires it to the cluster fault planes).
        self.node_down = node_down or (lambda host: False)
        #: Administratively/fault down: deliveries stall and retry.
        self.down = False
        #: Bytes delivered across the link (a retry is counted in the
        #: endpoints' ``wan.retries`` telemetry, not here).
        self.bytes_carried = 0.0
        # self-telemetry on each endpoint's node registry: queue depth
        # and retry/backoff activity show up in that node's overhead
        # report (no-ops when the node disables telemetry).
        self._telemetry = {
            name: {
                "deliveries": n.telemetry.counter("wan.deliveries"),
                "retries": n.telemetry.counter("wan.retries"),
                "backoff": n.telemetry.counter("wan.backoff_seconds"),
                "queue": n.telemetry.gauge("wan.queue_depth"),
            }
            for name, n in self.endpoints.items()
        }
        self._queues: dict[str, Store] = {a.name: Store(env),
                                          b.name: Store(env)}
        self._handlers: dict[str, object] = {}
        for name in self.endpoints:
            env.process(self._pump(name), name=f"wan-pump:{name}")

    def other(self, name: str) -> Node:
        try:
            (peer,) = [n for n in self.endpoints.values()
                       if n.name != name]
        except ValueError:
            raise NetworkError(f"{name!r} is not on this WAN link") \
                from None
        return peer

    def bind(self, gateway: str, handler) -> None:
        """Register the receive callback at one endpoint."""
        if gateway not in self.endpoints:
            raise NetworkError(f"{gateway!r} is not on this WAN link")
        self._handlers[gateway] = handler

    def send(self, src: str, payload: object,
             size: float = SUMMARY_BYTES) -> None:
        """Queue a message from ``src`` toward the other endpoint."""
        if src not in self.endpoints:
            raise NetworkError(f"{src!r} is not on this WAN link")
        node = self.endpoints[src]
        node.charge_kernel_seconds(
            node.costs.encode_cost(size) + node.costs.send_cost(size, 1))
        dst = self.other(src).name
        self._telemetry[dst]["queue"].adjust(1)
        self._queues[dst].put((payload, size))

    def _pump(self, dst: str):
        queue = self._queues[dst]
        telemetry = self._telemetry[dst]
        while True:
            payload, size = yield queue.get()
            telemetry["queue"].adjust(-1)
            backoff = self.retry_initial
            while True:
                # A retry resends the bytes: the serialisation and
                # propagation delay is paid again on every attempt.
                yield self.env.timeout(
                    size / self.bandwidth + self.latency)
                if not self.down and not self.node_down(dst):
                    break
                telemetry["retries"].inc()
                telemetry["backoff"].inc(backoff)
                yield self.env.timeout(backoff)
                backoff = min(self.retry_max, backoff * 2.0)
            node = self.endpoints[dst]
            node.charge_kernel_seconds(node.costs.receive_cost(size))
            telemetry["deliveries"].inc()
            self.bytes_carried += size
            handler = self._handlers.get(dst)
            if handler is not None:
                handler(payload)  # type: ignore[operator]


@dataclass
class Site:
    """One federated cluster."""

    name: str
    cluster: Cluster
    dprocs: dict[str, Dproc]
    gateway: str

    @property
    def gateway_dproc(self) -> Dproc:
        return self.dprocs[self.gateway]


class GridFederation:
    """Gateways exchanging site summaries over WAN links."""

    def __init__(self, env: Environment,
                 summary_period: float = 5.0) -> None:
        if summary_period <= 0:
            raise DprocError("summary period must be positive")
        self.env = env
        self.summary_period = float(summary_period)
        self.sites: dict[str, Site] = {}
        self._links: dict[str, list[WanLink]] = {}
        #: site -> (peer site -> latest summary) as known at that site.
        self.known: dict[str, dict[str, SiteSummary]] = {}
        self.running = False
        self._loops: dict[str, Process] = {}

    # -- construction ------------------------------------------------------------

    def add_site(self, name: str, cluster: Cluster,
                 dprocs: dict[str, Dproc], gateway: str) -> Site:
        if name in self.sites:
            raise DprocError(f"site {name!r} already federated")
        if gateway not in dprocs:
            raise DprocError(
                f"gateway {gateway!r} has no dproc instance")
        site = Site(name=name, cluster=cluster, dprocs=dprocs,
                    gateway=gateway)
        self.sites[name] = site
        self._links[name] = []
        self.known[name] = {}
        return site

    def connect(self, site_a: str, site_b: str,
                bandwidth: float = mbps(10),
                latency: float = msec(40),
                retry_initial: float = 0.5,
                retry_max: float = 8.0) -> WanLink:
        """Lay a WAN link between two sites' gateways.

        The link's ``node_down`` probe consults each site's cluster
        fault plane, so an injected gateway crash stalls summary
        exchange (with backoff) instead of losing summaries.
        """
        try:
            a = self.sites[site_a]
            b = self.sites[site_b]
        except KeyError as exc:
            raise DprocError(f"unknown site {exc.args[0]!r}") from None

        owners = {a.gateway: a, b.gateway: b}

        def gateway_down(host: str) -> bool:
            site = owners.get(host)
            if site is None:
                return False
            faults = site.cluster.fabric.faults
            return faults is not None and faults.node_down(host)

        link = WanLink(self.env,
                       a.cluster[a.gateway], b.cluster[b.gateway],
                       bandwidth=bandwidth, latency=latency,
                       retry_initial=retry_initial,
                       retry_max=retry_max,
                       node_down=gateway_down)
        link.bind(a.gateway, lambda payload, s=site_a:
                  self._receive(s, payload))
        link.bind(b.gateway, lambda payload, s=site_b:
                  self._receive(s, payload))
        self._links[site_a].append(link)
        self._links[site_b].append(link)
        return link

    # -- operation ------------------------------------------------------------

    def start(self) -> "GridFederation":
        if self.running:
            raise DprocError("federation already running")
        if not self.sites:
            raise DprocError("no sites to federate")
        self.running = True
        for site in self.sites.values():
            # A loop stopped but not yet woken carries on, and a site's
            # /proc/grid tree is mounted on its first start only.
            loop = self._loops.get(site.name)
            if loop is None or not loop.is_alive:
                self._loops[site.name] = self.env.process(
                    self._gateway_loop(site), name=f"grid:{site.name}")
            if loop is None:
                self._mount_grid_tree(site)
        return self

    def stop(self) -> None:
        self.running = False

    def summarize_site(self, site: Site) -> SiteSummary:
        """Condense one site's current state via its gateway's view."""
        view = ClusterView(site.gateway_dproc)
        free = view.total(MetricId.FREEMEM)
        mean_load = view.mean(MetricId.LOADAVG)
        _h, max_disk = view.extreme(MetricId.DISKUSAGE, largest=True)
        _h, min_bw = view.extreme(MetricId.NET_BANDWIDTH, largest=False)
        return SiteSummary(
            site=site.name,
            n_nodes=len(site.cluster),
            mean_loadavg=mean_load,
            total_free_bytes=free,
            max_diskusage=max_disk,
            min_net_bandwidth=min_bw,
            generated_at=self.env.now)

    def _gateway_loop(self, site: Site):
        rng = site.cluster[site.gateway].rng
        yield self.env.timeout(float(
            rng.uniform(0, self.summary_period)))
        while self.running:
            summary = self.summarize_site(site)
            self.known[site.name][site.name] = summary
            for link in self._links[site.name]:
                link.send(site.gateway, summary)
            yield self.env.timeout(self.summary_period)

    def _receive(self, at_site: str, payload: object) -> None:
        assert isinstance(payload, SiteSummary)
        payload.received_at = self.env.now
        self.known[at_site][payload.site] = payload

    # -- queries ---------------------------------------------------------------

    def summary(self, at_site: str,
                of_site: str) -> Optional[SiteSummary]:
        """What ``at_site``'s gateway knows about ``of_site``."""
        return self.known.get(at_site, {}).get(of_site)

    def least_loaded_site(self, at_site: str) -> Optional[str]:
        """The known site with the lowest mean load (grid scheduling)."""
        candidates = {
            name: s for name, s in self.known.get(at_site, {}).items()
            if s.mean_loadavg == s.mean_loadavg  # not NaN
        }
        if not candidates:
            return None
        return min(candidates,
                   key=lambda n: candidates[n].mean_loadavg)

    # -- procfs integration --------------------------------------------------------

    def _mount_grid_tree(self, site: Site) -> None:
        """Expose peer-site summaries under /proc/grid/ at the gateway."""
        dproc = site.gateway_dproc

        def reader(of_site: str, fieldname: str):
            def read() -> str:
                summary = self.summary(site.name, of_site)
                if summary is None:
                    return "nan\n"
                return f"{getattr(summary, fieldname):.6g}\n"
            return read

        for other in self.sites:
            for fieldname in SiteSummary.FIELDS:
                dproc.procfs.mount(
                    f"/proc/grid/{other}/{fieldname}",
                    ProcFile(reader(other, fieldname)))
