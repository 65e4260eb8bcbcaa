"""Integration tests for wide-area grid federation."""

from __future__ import annotations

import math

import pytest

from repro.dproc import deploy_dproc
from repro.dproc.federation import GridFederation, SiteSummary, WanLink
from repro.errors import DprocError, NetworkError
from repro.sim import Environment, build_cluster
from repro.units import mbps, msec
from repro.workloads import Linpack


def _wan(link, name):
    """A WAN telemetry counter summed over the link's two endpoints."""
    return sum(node.telemetry.value(name)
               for node in link.endpoints.values())


def make_site(env, federation, site_name, prefix, n_nodes=3):
    names = [f"{prefix}{i}" for i in range(n_nodes)]
    cluster = build_cluster(env, nodes=n_nodes, seed=7, names=names)
    dprocs = deploy_dproc(cluster)
    for dp in dprocs.values():
        dp.dmon.modules["cpu"].configure("period", 4.0)
    return federation.add_site(site_name, cluster, dprocs,
                               gateway=names[0])


@pytest.fixture
def grid(env):
    """Two 3-node sites joined by a 10 Mbps / 40 ms WAN link."""
    federation = GridFederation(env, summary_period=2.0)
    east = make_site(env, federation, "east", "e")
    west = make_site(env, federation, "west", "w")
    federation.connect("east", "west")
    federation.start()
    return federation, east, west


class TestWanLink:
    def test_same_name_endpoints_rejected(self, env):
        c1 = build_cluster(env, 1, names=["gw"])
        c2 = Environment()  # separate env irrelevant; reuse c1 node
        with pytest.raises(NetworkError, match="distinct"):
            WanLink(env, c1["gw"], c1["gw"])

    def test_delivery_includes_latency(self, env):
        cluster = build_cluster(env, 2, names=["ga", "gb"])
        link = WanLink(env, cluster["ga"], cluster["gb"],
                       bandwidth=mbps(10), latency=msec(40))
        got = []
        link.bind("gb", lambda p: got.append((env.now, p)))
        link.send("ga", "hello", size=1250.0)  # 1 ms at 10 Mbps
        env.run(until=1.0)
        assert len(got) == 1
        t, payload = got[0]
        assert payload == "hello"
        assert t == pytest.approx(0.041, abs=0.002)

    def test_fifo_serialisation(self, env):
        cluster = build_cluster(env, 2, names=["ga", "gb"])
        link = WanLink(env, cluster["ga"], cluster["gb"],
                       bandwidth=1000.0, latency=0.0)  # 1 KB/s
        got = []
        link.bind("gb", lambda p: got.append((env.now, p)))
        link.send("ga", "first", size=1000.0)
        link.send("ga", "second", size=1000.0)
        env.run(until=5.0)
        assert [p for _t, p in got] == ["first", "second"]
        assert got[1][0] - got[0][0] == pytest.approx(1.0, abs=0.01)

    def test_unknown_endpoint_rejected(self, env):
        cluster = build_cluster(env, 2, names=["ga", "gb"])
        link = WanLink(env, cluster["ga"], cluster["gb"])
        with pytest.raises(NetworkError):
            link.send("zz", "x")
        with pytest.raises(NetworkError):
            link.bind("zz", lambda p: None)

    def test_bytes_counted(self, env):
        cluster = build_cluster(env, 2, names=["ga", "gb"])
        link = WanLink(env, cluster["ga"], cluster["gb"])
        link.send("ga", "x", size=500.0)
        env.run(until=1.0)
        assert link.bytes_carried == pytest.approx(500.0)


class TestFederation:
    def test_summaries_cross_the_wan(self, env, grid):
        federation, east, west = grid
        env.run(until=10.0)
        summary = federation.summary("east", "west")
        assert isinstance(summary, SiteSummary)
        assert summary.n_nodes == 3
        assert summary.total_free_bytes > 0
        assert summary.received_at > summary.generated_at

    def test_wan_latency_visible_in_summary_age(self, env, grid):
        federation, _east, _west = grid
        env.run(until=10.0)
        summary = federation.summary("west", "east")
        delay = summary.received_at - summary.generated_at
        assert delay >= 0.04  # at least the 40 ms WAN latency

    def test_local_summary_known_immediately(self, env, grid):
        federation, _e, _w = grid
        env.run(until=5.0)
        assert federation.summary("east", "east") is not None

    def test_grid_procfs_tree(self, env, grid):
        federation, east, _west = grid
        env.run(until=10.0)
        gw = east.gateway_dproc
        assert gw.listdir("/proc/grid") == ["east", "west"]
        free = float(gw.read("/proc/grid/west/total_free_bytes"))
        assert free > 0
        load = float(gw.read("/proc/grid/west/mean_loadavg"))
        assert not math.isnan(load)

    def test_restart_mounts_once_and_runs_one_loop_per_gateway(self):
        def run_once(restart):
            env = Environment()
            federation = GridFederation(env, summary_period=2.0)
            east = make_site(env, federation, "east", "e")
            make_site(env, federation, "west", "w")
            link = federation.connect("east", "west")
            federation.start()
            env.run(until=5.0)
            if restart:
                federation.stop()
                federation.start()
            env.run(until=30.0)
            return (link.bytes_carried,
                    east.gateway_dproc.read(
                        "/proc/grid/west/total_free_bytes"))

        assert run_once(restart=True) == run_once(restart=False)

    def test_unknown_site_reads_nan_before_data(self, env):
        federation = GridFederation(env, summary_period=2.0)
        east = make_site(env, federation, "east", "e")
        make_site(env, federation, "west", "w")
        federation.connect("east", "west")
        federation.start()
        # read before any summary period elapsed
        text = east.gateway_dproc.read("/proc/grid/west/mean_loadavg")
        assert math.isnan(float(text))

    def test_least_loaded_site_for_grid_scheduling(self, env, grid):
        federation, east, west = grid
        # Load every west node.
        for node in west.cluster:
            for _ in range(3):
                Linpack(node).start()
        env.run(until=40.0)
        assert federation.least_loaded_site("east") == "east"

    def test_intra_site_traffic_stays_local(self, env, grid):
        """Only summaries cross the WAN — a few hundred bytes per
        period, not the per-node monitoring streams."""
        federation, east, west = grid
        env.run(until=20.0)
        link = federation._links["east"][0]
        # ~2 summaries per period (one per direction) of 160 B each.
        expected = 2 * (20.0 / 2.0) * 160.0
        assert link.bytes_carried <= expected * 1.2
        # Meanwhile the intra-site monitoring moved far more data.
        intra = east.cluster["e0"].stack.bytes_received
        assert intra > link.bytes_carried

    def test_validation(self, env):
        federation = GridFederation(env)
        with pytest.raises(DprocError):
            federation.start()  # no sites
        east = make_site(env, federation, "east", "e")
        with pytest.raises(DprocError):
            federation.add_site("east", east.cluster, east.dprocs,
                                gateway="e0")
        with pytest.raises(DprocError):
            federation.connect("east", "nowhere")
        with pytest.raises(DprocError):
            GridFederation(env, summary_period=0)
        with pytest.raises(DprocError):
            federation.add_site("bad", east.cluster, east.dprocs,
                                gateway="ghost")


class TestWanRetry:
    def test_down_link_stalls_then_drains(self, env):
        """Messages queued while the link is down are retried with
        backoff and delivered after restore — never dropped."""
        cluster = build_cluster(env, 2, names=["ga", "gb"])
        link = WanLink(env, cluster["ga"], cluster["gb"],
                       bandwidth=mbps(10), latency=msec(40),
                       retry_initial=0.5, retry_max=8.0)
        got = []
        link.bind("gb", lambda p: got.append((env.now, p)))
        link.down = True
        link.send("ga", "queued", size=1250.0)
        env.run(until=5.0)
        assert got == []
        assert _wan(link, "wan.retries") >= 1
        link.down = False
        env.run(until=20.0)
        assert [p for _t, p in got] == ["queued"]
        assert got[0][0] > 5.0

    def test_backoff_doubles_up_to_cap(self, env):
        cluster = build_cluster(env, 2, names=["ga", "gb"])
        link = WanLink(env, cluster["ga"], cluster["gb"],
                       bandwidth=mbps(10), latency=0.0,
                       retry_initial=1.0, retry_max=4.0)
        link.down = True
        link.send("ga", "x", size=1250.0)
        # The backoff each retry waits, read off the endpoints'
        # telemetry one retry at a time.
        backoffs, retries, waited = [], 0.0, 0.0
        for step in range(1, 301):
            env.run(until=step * 0.1)
            if _wan(link, "wan.retries") > retries:
                retries = _wan(link, "wan.retries")
                backoff = _wan(link, "wan.backoff_seconds")
                backoffs.append(backoff - waited)
                waited = backoff
        assert backoffs[:5] == [1.0, 2.0, 4.0, 4.0, 4.0]
        assert max(backoffs) == 4.0

    def test_node_down_probe_stalls_delivery(self, env):
        cluster = build_cluster(env, 2, names=["ga", "gb"])
        down = {"gb"}
        link = WanLink(env, cluster["ga"], cluster["gb"],
                       retry_initial=0.5,
                       node_down=lambda host: host in down)
        got = []
        link.bind("gb", lambda p: got.append(p))
        link.send("ga", "x", size=500.0)
        env.run(until=3.0)
        assert got == []
        down.clear()
        env.run(until=10.0)
        assert got == ["x"]

    def test_bad_retry_parameters_rejected(self, env):
        cluster = build_cluster(env, 2, names=["ga", "gb"])
        with pytest.raises(NetworkError, match="retry"):
            WanLink(env, cluster["ga"], cluster["gb"], retry_initial=0)
        with pytest.raises(NetworkError, match="retry"):
            WanLink(env, cluster["ga"], cluster["gb"],
                    retry_initial=2.0, retry_max=1.0)

    def test_gateway_crash_pauses_summaries_until_reboot(self, env):
        """connect() wires node_down to the site fault planes: summaries
        survive a gateway crash + reboot."""
        from repro.sim import FaultInjector
        federation = GridFederation(env, summary_period=2.0)
        east = make_site(env, federation, "east", "e")
        west = make_site(env, federation, "west", "w")
        federation.connect("east", "west")
        federation.start()
        injector = FaultInjector(west.cluster)
        injector.schedule_crash(3.0, "w0", reboot_at=12.0)
        env.run(until=10.0)
        link = federation._links["east"][0]
        assert _wan(link, "wan.retries") >= 1
        stuck = federation.summary("west", "east")
        assert stuck is None or stuck.received_at < 4.0
        env.run(until=25.0)
        fresh = federation.summary("west", "east")
        assert fresh is not None and fresh.received_at > 12.0
