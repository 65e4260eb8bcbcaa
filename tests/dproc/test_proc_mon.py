"""Unit tests for PROC_MON, the sim backend's keyed process table."""

from __future__ import annotations

import pytest

from repro.dproc import MetricId
from repro.dproc.modules import ProcMon
from repro.errors import DprocError


def stream_state(rng):
    """Every slot of a ``Pcg64Stream``: the whole of its state."""
    return tuple(getattr(rng, slot) for slot in rng.__slots__)


@pytest.fixture
def mon(cluster3):
    return ProcMon(cluster3["alan"])


class TestTableShape:
    def test_default_population(self, mon):
        table = mon.keyed_collect(1.0)
        assert len(table) == ProcMon.DEFAULT_N_PROCS
        pids = [row[0] for row in table]
        assert pids == sorted(pids)
        for pid, cpu, rss, io in table:
            assert 1000 <= pid < 1000 + ProcMon.DEFAULT_N_PROCS
            assert cpu > 0 and rss > 0 and io >= 0

    def test_zipf_like_cpu_profile(self, mon):
        """Daemon i's share is ~1/(i+1) with a ±50% wobble: the head
        of the distribution always outweighs the tail."""
        table = mon.keyed_collect(1.0)
        shares = [row[1] for row in table]
        # Head daemon draws >= 0.1, tail daemon <= 0.3/16.
        assert shares.index(max(shares)) <= 1
        assert shares[0] > 4 * shares[-1]

    def test_nprocs_configure_resizes(self, mon):
        mon.configure("nprocs", 4)
        assert len(mon.keyed_collect(2.0)) == 4
        mon.configure("nprocs", 0)
        assert mon.keyed_collect(3.0) == []

    def test_bad_nprocs_rejected(self, mon):
        with pytest.raises(DprocError):
            mon.configure("nprocs", -1)
        with pytest.raises(DprocError):
            mon.configure("nprocs", ProcMon.MAX_N_PROCS + 1)

    def test_unknown_knob_rejected(self, mon):
        with pytest.raises(DprocError):
            mon.configure("frobs", 1)


class TestDeterminism:
    def test_same_node_same_instant_same_table(self, cluster3):
        a = ProcMon(cluster3["alan"])
        b = ProcMon(cluster3["alan"])
        assert a.keyed_collect(5.0) == b.keyed_collect(5.0)

    def test_different_nodes_differ(self, cluster3):
        a = ProcMon(cluster3["alan"])
        b = ProcMon(cluster3["maui"])
        assert a.keyed_collect(5.0) != b.keyed_collect(5.0)

    def test_tables_wobble_across_poll_epochs(self, mon):
        assert mon.keyed_collect(1.0) != mon.keyed_collect(2.0)

    def test_no_rng_draws(self, cluster3):
        """Sampling must not advance the node's RNG stream — goldens
        without the proc module stay bit-identical."""
        node = cluster3["alan"]
        before = stream_state(node.rng)
        mon = ProcMon(node)
        mon.collect(1.0)
        mon.keyed_collect(2.0)
        assert stream_state(node.rng) == before

    def test_memoised_within_one_poll_instant(self, mon):
        first = mon.keyed_collect(7.0)
        assert mon.keyed_collect(7.0) is first


class TestAggregates:
    def test_collect_matches_table(self, mon):
        table = mon.keyed_collect(1.0)
        samples = dict(zip(mon.metrics(), mon.collect(1.0)))
        assert samples[MetricId.PROC_COUNT] == len(table)
        assert samples[MetricId.PROC_CPU_MAX] \
            == max(row[1] for row in table)
        assert samples[MetricId.PROC_RSS_MAX] \
            == max(row[2] for row in table)

    def test_empty_table_aggregates_to_zero(self, mon):
        mon.configure("nprocs", 0)
        samples = dict(zip(mon.metrics(), mon.collect(1.0)))
        assert samples[MetricId.PROC_COUNT] == 0.0
        assert samples[MetricId.PROC_CPU_MAX] == 0.0


class TestRealJobs:
    def test_runnable_jobs_appear_with_offset_pids(self, env, cluster3):
        node = cluster3["alan"]
        node.cpu.submit(1e6, name="burn")
        mon = ProcMon(node, n_procs=2)
        table = mon.keyed_collect(env.now)
        job_rows = [row for row in table if row[0] >= 100000]
        assert len(job_rows) == 1
        assert job_rows[0][1] > 0  # a share of the CPU
        daemon_rows = [row for row in table if row[0] < 100000]
        assert len(daemon_rows) == 2
