"""Integration tests for the Dproc toolkit facade and /proc interface."""

from __future__ import annotations

import math
import tracemalloc

import pytest

from repro.api import Scenario
from repro.dproc import Dproc, MetricId, Roster, procfs
from repro.dproc.toolkit import CONTROL_LOG_LINES, DEFAULT_MODULES
from repro.kecho import KechoBus
from repro.runtime.deployment import Deployment, default_names
from repro.errors import (ControlSyntaxError, DprocError, ProcfsError,
                          UnknownMetricError)


@pytest.fixture
def dprocs(sc3):
    return sc3.dprocs


class TestDeployment:
    def test_every_node_gets_instance(self, sc3, dprocs):
        assert set(dprocs) == set(sc3.nodes.names)
        for name, dp in dprocs.items():
            assert dp.node.name == name
            assert dp.dmon.running

    def test_proc_cluster_shows_all_hosts(self, dprocs):
        for dp in dprocs.values():
            assert dp.listdir("/proc/cluster") == ["alan", "etna", "maui"]

    def test_figure1_hierarchy(self, dprocs):
        """The paper's Figure 1: metric files under each node dir."""
        files = dprocs["alan"].listdir("/proc/cluster/maui")
        for expected in ("loadavg", "freemem", "diskusage", "control",
                         "net_bandwidth", "cache_miss"):
            assert expected in files

    def test_subset_deployment(self):
        dprocs = Scenario(nodes=8, seed=42,
                          monitor_hosts=["alan", "maui"]).build().dprocs
        assert set(dprocs) == {"alan", "maui"}
        assert dprocs["alan"].listdir("/proc/cluster") == ["alan", "maui"]

    def test_duplicate_host_mount_rejected(self, dprocs):
        with pytest.raises(DprocError):
            dprocs["alan"].add_cluster_node("maui")

    def test_service_attached_to_node(self, sc3, dprocs):
        assert sc3.nodes["alan"].services["dproc"] is dprocs["alan"]

    def test_roster_shows_hosts_deployed_elsewhere(self):
        """A process that runs a slice of the hosts (a live pool
        worker) deploys only those, and each instance still lists the
        whole deployment."""
        local = Scenario(nodes=2, seed=42, monitor_hosts=0).build()
        names = tuple(default_names(8))
        dprocs = Deployment(
            seed=42, dmon=None, modules=DEFAULT_MODULES, names=names,
            monitored=names).deploy(local.nodes, local.runtime.bus)
        assert set(dprocs) == {"alan", "maui"}
        for dp in dprocs.values():
            assert dp.hosts() == tuple(sorted(names))
            assert dp.listdir("/proc/cluster") == sorted(names)
            assert dp.read("/proc/cluster/hood/loadavg") == "nan\n"
        # One listing for the deployment, not a copy per instance.
        assert dprocs["alan"].hosts() is dprocs["maui"].hosts()

    def test_a_join_appears_on_every_instance(self):
        dprocs = Scenario(nodes=8, seed=42,
                          monitor_hosts=["alan", "maui"]).build().dprocs
        dprocs["alan"].add_cluster_node("etna")
        for dp in dprocs.values():
            assert dp.hosts() == ("alan", "etna", "maui")
            assert dp.read("/proc/cluster/etna/status") \
                == "state: unknown\nage: inf\n"
        with pytest.raises(DprocError, match="already"):
            dprocs["maui"].add_cluster_node("etna")

    @pytest.mark.parametrize("name", ["", "rack1/n7", "/", " x ", "x ",
                                      "\tx"])
    def test_a_host_name_is_one_path_component(self, cluster3, name):
        dproc = Dproc(cluster3["alan"], KechoBus())
        with pytest.raises(ProcfsError, match="bad host name"):
            dproc.add_cluster_node(name)
        assert dproc.hosts() == ()
        assert dproc.listdir("/proc/cluster") == []
        dproc.add_cluster_node("rack1")
        assert dproc.hosts() == ("rack1",)


class TestScaling:
    def test_a_host_costs_a_table_entry_not_a_file_set(self, cluster3):
        """Counted, not timed: a host directory is one mount of the
        shared template — 7 blocks and under 500 bytes, where 26
        files with a closure each were 313 blocks and 21 KB."""
        dproc = Dproc(cluster3["alan"], KechoBus())
        hosts = [f"node{i}" for i in range(1000)]
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for host in hosts:
            dproc.add_cluster_node(host)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        grown = after.compare_to(before, "filename")
        assert sum(s.count_diff for s in grown) <= 12 * len(hosts)
        assert sum(s.size_diff for s in grown) <= 1024 * len(hosts)
        assert len(dproc.listdir("/proc/cluster/node999")) > 20
        assert dproc.read("/proc/cluster/node999/loadavg") == "nan\n"

    def test_an_instance_cluster_dir_is_o1_in_the_roster(self, cluster8):
        """Counted, not timed: the /proc tree of an instance over a
        1,024-host roster allocates what one over a 64-host roster
        does (give or take a free-list hit), and its /proc/cluster is
        one mount.  A mount per host added some 500 B a host."""
        bus = KechoBus()
        Dproc(cluster8["alan"], bus)   # module-level caches warm up
        only_procfs = [tracemalloc.Filter(True, procfs.__file__)]

        def tree_bytes(node, hosts):
            roster = Roster(f"node{i}" for i in range(hosts))
            assert len(roster.names) == hosts
            tracemalloc.start()
            before = tracemalloc.take_snapshot().filter_traces(only_procfs)
            dproc = Dproc(cluster8[node], bus, roster=roster)
            after = tracemalloc.take_snapshot().filter_traces(only_procfs)
            tracemalloc.stop()
            assert len(dproc.procfs._dirs) == 1
            assert dproc.hosts() is roster.names
            return sum(s.size_diff
                       for s in after.compare_to(before, "filename"))

        small = tree_bytes("maui", 64)
        assert 0 < small < 4096
        assert abs(tree_bytes("etna", 1024) - small) <= 512


class TestReading:
    def test_remote_metric_via_procfs(self, sc3, dprocs):
        sc3.run_until(3.0)
        text = dprocs["alan"].read("/proc/cluster/maui/freemem")
        assert float(text) > 0

    def test_own_metrics_served_locally(self, sc3, dprocs):
        sc3.run_until(3.0)
        text = dprocs["alan"].read("/proc/cluster/alan/freemem")
        assert float(text) > 0

    def test_unknown_value_reads_nan(self, sc3, dprocs):
        # before any polling happened
        text = dprocs["alan"].read("/proc/cluster/maui/loadavg")
        assert math.isnan(float(text))

    def test_standard_proc_loadavg(self, sc3, dprocs):
        sc3.nodes["alan"].cpu.execute(1e9)
        sc3.run_until(60.0)
        one, five, fifteen = dprocs["alan"].read("/proc/loadavg").split()
        assert float(one) > float(fifteen) > 0

    def test_meminfo(self, dprocs):
        text = dprocs["alan"].read("/proc/meminfo")
        assert "MemTotal" in text and "MemFree" in text

    def test_metric_helpers(self, sc3, dprocs):
        sc3.run_until(3.0)
        assert dprocs["alan"].metric("maui", MetricId.FREEMEM) > 0
        assert dprocs["alan"].loadavg("maui") >= 0
        # A metric for an unknown host is NaN.
        assert math.isnan(dprocs["alan"].metric("vesuvius",
                                                MetricId.LOADAVG))

    def test_read_missing_path(self, dprocs):
        with pytest.raises(ProcfsError):
            dprocs["alan"].read("/proc/cluster/maui/bogus")


class TestControlWrites:
    def test_period_command_reaches_remote(self, sc3, dprocs):
        sc3.run_until(1.0)
        dprocs["alan"].write("/proc/cluster/maui/control",
                             "period cpu 2")
        sc3.run_until(2.0)
        maui = dprocs["maui"].dmon
        assert maui.policies[MetricId.LOADAVG].period == 2.0

    def test_combined_commands(self, sc3, dprocs):
        sc3.run_until(1.0)
        dprocs["alan"].write(
            "/proc/cluster/etna/control",
            "period cpu 2\nthreshold loadavg above 0.8")
        sc3.run_until(2.0)
        policy = dprocs["etna"].dmon.policies[MetricId.LOADAVG]
        assert policy.period == 2.0
        assert len(policy.thresholds) == 1

    def test_filter_deploy_via_control_file(self, sc3, dprocs):
        sc3.run_until(1.0)
        dprocs["alan"].write("/proc/cluster/maui/control", """filter * id=f1
{
    int i = 0;
    if (input[LOADAVG].value > 0.5) {
        output[i] = input[LOADAVG];
        i = i + 1;
    }
}""")
        sc3.run_until(2.0)
        deployed = dprocs["maui"].dmon.filters.global_filter
        assert deployed is not None and deployed.filter_id == "f1"
        dprocs["alan"].write("/proc/cluster/maui/control", "unfilter f1")
        sc3.run_until(3.0)
        assert dprocs["maui"].dmon.filters.global_filter is None

    def test_self_control_applies_locally(self, sc3, dprocs):
        sc3.run_until(1.0)
        dprocs["alan"].write("/proc/cluster/alan/control",
                             "period mem 4")
        assert dprocs["alan"].dmon.policies[MetricId.FREEMEM].period \
            == 4.0

    def test_control_read_returns_log(self, sc3, dprocs):
        sc3.run_until(1.0)
        dprocs["alan"].write("/proc/cluster/maui/control",
                             "period cpu 2")
        assert "period cpu 2" in \
            dprocs["alan"].read("/proc/cluster/maui/control")

    def test_control_log_is_bounded(self, sc3, dprocs):
        sc3.run_until(1.0)
        extra = 10
        for i in range(CONTROL_LOG_LINES + extra):
            dprocs["alan"].write("/proc/cluster/maui/control",
                                 f"period cpu {i + 1}")
        lines = dprocs["alan"].read(
            "/proc/cluster/maui/control").splitlines()
        assert len(lines) == CONTROL_LOG_LINES
        assert lines[0] == f"period cpu {extra + 1}"
        assert lines[-1] == f"period cpu {CONTROL_LOG_LINES + extra}"

    def test_refused_command_leaves_the_applied_ones_in_the_log(
            self, sc3, dprocs):
        """A local write applies its commands in order; when one is
        refused, the control file reads back exactly the ones that
        took effect."""
        sc3.run_until(1.0)
        alan = dprocs["alan"]
        with pytest.raises(UnknownMetricError):
            alan.write("/proc/cluster/alan/control",
                       "period  mem 3\nthreshold nosuchmetric above 1")
        assert alan.dmon.policies[MetricId.FREEMEM].period == 3.0
        assert alan.read("/proc/cluster/alan/control") == "period mem 3\n"

    def test_bad_command_rejected_locally(self, dprocs):
        with pytest.raises(ControlSyntaxError):
            dprocs["alan"].write("/proc/cluster/maui/control",
                                 "warp cpu 9")

    def test_metric_files_are_read_only(self, dprocs):
        with pytest.raises(ProcfsError, match="read-only"):
            dprocs["alan"].write("/proc/cluster/maui/loadavg", "1.0")


class TestScenario:
    def test_batch_scheduler_scenario(self, sc3, dprocs):
        """The paper's batch-queue scheduler: free-memory updates only
        while the load average is below the CPU count."""
        sc3.run_until(1.0)
        n_cpus = sc3.nodes["maui"].cpu.n_cpus
        dprocs["alan"].write("/proc/cluster/maui/control", f"""filter * id=sched
{{
    int i = 0;
    if (input[LOADAVG].value < {n_cpus}) {{
        output[i] = input[FREEMEM];
        i = i + 1;
    }}
}}""")
        sc3.run_until(6.0)
        # maui idle -> loadavg < n_cpus -> FREEMEM keeps flowing while
        # LOADAVG (published before the filter landed) goes stale.
        alan = dprocs["alan"].dmon
        fresh = alan.remote_value("maui", MetricId.FREEMEM)
        assert fresh is not None and fresh.timestamp > 2.0
        stale = alan.remote_value("maui", MetricId.LOADAVG)
        assert stale is None or stale.timestamp < 2.0
        # Now saturate maui; FREEMEM updates must stop.
        for _ in range(n_cpus + 2):
            sc3.nodes["maui"].cpu.execute(1e9)
        sc3.run_until(90.0)
        before = alan.remote_value("maui", MetricId.FREEMEM).timestamp
        sc3.run_until(110.0)
        after = alan.remote_value("maui", MetricId.FREEMEM).timestamp
        assert after == before  # no fresh FREEMEM while loaded


class TestStatusFiles:
    def test_status_reports_fresh_peer(self, sc3, dprocs):
        sc3.run_until(3.0)
        text = dprocs["alan"].read("/proc/cluster/maui/status")
        assert text.startswith("state: fresh\n")
        assert dprocs["alan"].dmon.peer_state("maui") == "fresh"

    def test_status_tracks_downed_peer(self, sc3, dprocs):
        sc3.run_until(3.0)
        dprocs["maui"].stop()
        sc3.run_until(30.0)
        text = dprocs["alan"].read("/proc/cluster/maui/status")
        assert text.startswith("state: dead\n")
        age = float(text.splitlines()[1].split()[1])
        assert age > 10.0

    def test_status_unknown_before_any_data(self, dprocs):
        text = dprocs["alan"].read("/proc/cluster/maui/status")
        assert text == "state: unknown\nage: inf\n"
