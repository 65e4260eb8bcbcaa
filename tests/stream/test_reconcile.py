"""Replay-vs-ground-truth reconciliation, clean and under chaos."""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.harness.chaos import chaos_recovery
from repro.stream import reconcile

#: The pinned golden chaos scenario (ISSUE acceptance): 50 nodes
#: through loss, a partition and a crash+reboot — every missing
#: delivery must be attributed to the fault plane.
GOLDEN_CHAOS = dict(
    nodes=50, seed=11, duration=40.0,
    loss_probability=0.3, loss_start=5.0, loss_end=20.0,
    partition_start=10.0, partition_end=18.0,
    crash_at=12.0, reboot_at=20.0,
    poll_interval=1.0, probe_interval=0.5)


class TestCleanRun:
    @pytest.fixture(scope="class")
    def clean(self):
        scenario = Scenario(nodes=8, seed=3).with_stream().run(10.0)
        return scenario, reconcile(scenario.stream, scenario.dprocs,
                                   until=10.0)

    def test_zero_discrepancies(self, clean):
        _, report = clean
        assert report.ok
        assert not report.missing
        assert not report.duplicated
        assert not report.unexpected
        assert not report.dropped

    def test_every_submit_fully_delivered(self, clean):
        _, report = clean
        assert report.submits > 0
        assert report.delivered + len(report.in_flight) \
            == report.expected
        assert report.local_delivered == report.submits

    def test_procfs_ground_truth_checked(self, clean):
        _, report = clean
        assert report.procfs_checked > 0
        assert not report.procfs_mismatches

    def test_render_and_json(self, clean):
        _, report = clean
        text = report.render()
        assert "missing" in text and "procfs" in text
        doc = report.to_json()
        assert doc["ok"] is True
        assert doc["counts"]["missing"] == 0


class TestGoldenChaos:
    @pytest.fixture(scope="class")
    def report(self):
        return chaos_recovery(
            **GOLDEN_CHAOS, configure=lambda sc: sc.with_stream())

    def test_zero_unexplained_discrepancies(self, report):
        rec = report.reconciliation()
        assert rec.ok
        assert not rec.missing  # every loss attributed, none silent
        assert not rec.duplicated and not rec.unexpected
        assert not rec.procfs_mismatches

    def test_drops_attributed_to_the_fault_plane(self, report):
        rec = report.reconciliation()
        assert rec.dropped  # chaos definitely killed deliveries
        assert set(rec.dropped_by_fault) >= {"injected loss",
                                             "partition"}
        assert sum(rec.dropped_by_fault.values()) == len(rec.dropped)

    def test_per_host_findings_name_metric_files(self, report):
        rec = report.reconciliation()
        assert rec.per_host
        metric_names = {name for metrics in rec.per_host.values()
                        for name in metrics}
        assert "loadavg" in metric_names


class TestAttribution:
    def test_crash_drops_carry_the_victim_name(self):
        def faulty(sc):
            sc.faults.schedule_crash(2.0, sc.nodes.names[0])

        scenario = Scenario(nodes=5, seed=9) \
            .with_faults(faulty).with_stream().run(8.0)
        report = reconcile(scenario.stream, scenario.dprocs,
                           until=8.0)
        assert report.ok
        victim = scenario.nodes.names[0]
        assert any(f.startswith("crash") and victim in f
                   for f in report.dropped_by_fault)
