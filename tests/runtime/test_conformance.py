"""Cross-backend conformance: sim and live expose the same surface.

One scenario script runs on both backends (nodes, modules, control
writes, an E-code filter) and every observable contract — the procfs
layout, the delivered metric schema, control-file semantics, filter
behavior — must agree.  The live run costs ~2 wall seconds and is
shared by the whole module.
"""

from __future__ import annotations

import math

import pytest

from repro.api import Scenario
from repro.dproc import DMonConfig, MODULE_METRICS, MetricId
from repro.sim.cluster import default_names

POLL = 0.2
DURATION = 1.5
MODULES = ("cpu", "mem", "net")

#: Scope-``cpu`` halving filter: only LOADAVG flows for the cpu module
#: on the filtered host, at half value.
HALF_FILTER = ("filter cpu id=half\n"
               "{\n"
               "    output[0] = input[LOADAVG];\n"
               "    output[0].value = input[LOADAVG].value * 0.5;\n"
               "}\n")


def _wire(scenario: Scenario) -> Scenario:
    """The shared scenario script: identical on both backends."""

    def control_writes(sc: Scenario) -> None:
        n0, n1, n2 = sc.nodes.names
        sc.dprocs[n0].write(f"/proc/cluster/{n1}/control",
                            "period cpu 2")
        sc.dprocs[n0].write(f"/proc/cluster/{n2}/control", HALF_FILTER)

        def timed_write():
            # One generator on the observer's clock: virtual seconds
            # on sim, wall seconds on live.
            yield sc.dprocs[n0].node.env.timeout(DURATION / 2)
            sc.dprocs[n0].write(f"/proc/cluster/{n1}/control",
                                "period mem 2")

        sc.dprocs[n0].node.spawn(timed_write(), name="timed-write")

    return scenario.with_setup(control_writes)


@pytest.fixture(scope="module")
def sim_run() -> Scenario:
    sc = Scenario(nodes=3, seed=11, backend="sim",
                  dmon=DMonConfig(poll_interval=POLL), modules=MODULES)
    return _wire(sc).run(DURATION)


@pytest.fixture(scope="module")
def live_run() -> Scenario:
    sc = Scenario(nodes=3, seed=11, backend="live",
                  dmon=DMonConfig(poll_interval=POLL), modules=MODULES)
    return _wire(sc).run(DURATION)


@pytest.fixture(scope="module", params=["sim", "live"])
def each_run(request, sim_run, live_run) -> Scenario:
    return sim_run if request.param == "sim" else live_run


class TestProcfsLayout:
    def test_node_names_agree(self, sim_run, live_run):
        assert sim_run.nodes.names == live_run.nodes.names

    def test_cluster_dir_lists_all_hosts(self, each_run):
        sc = each_run
        for dproc in sc.dprocs.values():
            assert set(dproc.listdir("/proc/cluster")) == \
                set(sc.nodes.names)

    def test_host_dirs_identical_across_backends(self, sim_run,
                                                 live_run):
        n0 = sim_run.nodes.names[0]
        for host in sim_run.nodes.names:
            assert sim_run.dprocs[n0].listdir(
                f"/proc/cluster/{host}") == \
                live_run.dprocs[n0].listdir(f"/proc/cluster/{host}")

    def test_metric_files_read_as_floats(self, each_run):
        sc = each_run
        n0, n1 = sc.nodes.names[:2]
        for fname in ("loadavg", "freemem", "net_bandwidth"):
            text = sc.dprocs[n0].read(f"/proc/cluster/{n1}/{fname}")
            float(text.split()[0])  # parses, both backends


class TestDeliveredSchema:
    def test_unfiltered_modules_deliver_full_schema(self, each_run):
        sc = each_run
        n0, n1 = sc.nodes.names[:2]
        observer = sc.dprocs[n0]
        for module in ("mem", "net"):
            for metric in MODULE_METRICS[module]:
                assert not math.isnan(observer.metric(n1, metric)), \
                    f"{sc.backend}: {metric.name} not delivered"

    def test_schema_sets_agree(self, sim_run, live_run):
        def delivered(sc: Scenario) -> set[MetricId]:
            n0, n2 = sc.nodes.names[0], sc.nodes.names[2]
            return {m for m in MetricId
                    if not math.isnan(sc.dprocs[n0].metric(n2, m))}
        assert delivered(sim_run) == delivered(live_run)


class TestControlSemantics:
    def test_period_applied_at_target(self, each_run):
        sc = each_run
        n1 = sc.nodes.names[1]
        policy = sc.dprocs[n1].dmon.policies[MetricId.LOADAVG]
        assert policy.period == 2.0, sc.backend

    def test_control_readback_logs_write(self, each_run):
        sc = each_run
        n0, n1 = sc.nodes.names[:2]
        log = sc.dprocs[n0].read(f"/proc/cluster/{n1}/control")
        assert "period cpu 2" in log, sc.backend


class TestMidRunControl:
    """A control write issued halfway through the run, from a process
    on the observer's clock, lands on both backends."""

    def test_period_applied_at_target(self, each_run):
        sc = each_run
        n1 = sc.nodes.names[1]
        policy = sc.dprocs[n1].dmon.policies[MetricId.FREEMEM]
        assert policy.period == 2.0, sc.backend

    def test_control_readback_logs_write(self, each_run):
        sc = each_run
        n0, n1 = sc.nodes.names[:2]
        log = sc.dprocs[n0].read(f"/proc/cluster/{n1}/control")
        assert "period mem 2" in log, sc.backend


class TestFilterBehavior:
    def test_filter_compiled_at_target(self, each_run):
        sc = each_run
        n2 = sc.nodes.names[2]
        deployed = sc.dprocs[n2].dmon.filters.filter_for("cpu")
        assert deployed is not None and deployed.filter_id == "half"
        assert deployed.invocations > 0
        assert deployed.errors == 0

    def test_filter_halves_loadavg(self, each_run):
        sc = each_run
        n0, n2 = sc.nodes.names[0], sc.nodes.names[2]
        remote = sc.dprocs[n0].metric(n2, MetricId.LOADAVG)
        local = sc.dprocs[n2].metric(n2, MetricId.LOADAVG)
        assert not math.isnan(remote), sc.backend
        # Published value is half the local reading (small slack: the
        # live loadavg moves between publish and read).
        assert remote <= local * 0.5 + 0.05, (sc.backend, remote, local)


# -- one roster rule -------------------------------------------------------

ROSTER_NODES, ROSTER_MONITORED = 6, 4


@pytest.fixture(scope="module", params=["sim", "live-pool"])
def subset_run(request) -> Scenario:
    """``monitor_hosts=k < n`` on every way of running a scenario.

    The pool's second process owns hosts 3-5, so one monitored host
    (index 3) lives outside the parent on the live case.
    """
    backend = "live" if request.param == "live-pool" else "sim"
    sc = Scenario(nodes=ROSTER_NODES, seed=11, backend=backend,
                  dmon=DMonConfig(poll_interval=POLL), modules=MODULES,
                  monitor_hosts=ROSTER_MONITORED)
    if request.param == "live-pool":
        sc.with_node_pool(2)
    return sc.run(DURATION)


class TestRosterRule:
    """``/proc/cluster`` lists the hosts that run dproc — the same
    rule in one process and pooled."""

    def test_cluster_dir_lists_exactly_the_monitored_hosts(
            self, subset_run):
        sc = subset_run
        monitored = default_names(ROSTER_NODES)[:ROSTER_MONITORED]
        assert sc.dprocs, "no dproc in the parent process"
        assert set(sc.dprocs) <= set(monitored)
        for dproc in sc.dprocs.values():
            assert dproc.listdir("/proc/cluster") == sorted(monitored)
            assert list(dproc.hosts()) == sorted(monitored)

    def test_every_listed_host_delivers(self, subset_run):
        sc = subset_run
        observer = next(iter(sc.dprocs.values()))
        silent = [host for host in observer.hosts()
                  if host != observer.node.name
                  and math.isnan(observer.metric(host,
                                                 MetricId.FREEMEM))]
        assert not silent, f"{sc.backend}: listed but silent {silent}"
