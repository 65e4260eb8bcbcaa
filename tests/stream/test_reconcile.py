"""Replay-vs-ground-truth reconciliation, clean and under chaos."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import Scenario
from repro.dproc import MetricId
from repro.dproc.dmon import RemoteMetric
from repro.harness.chaos import chaos_recovery
from repro.stream import StreamBroker, reconcile
from repro.stream.entry import DELIVER

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


MONITOR = "dproc.monitor"


def doctored(broker, edit):
    """A copy of ``broker`` whose monitor log is ``edit(entries)``."""
    copy = StreamBroker()
    for channel in broker.channels():
        entries = [replace(e) for e in broker.entries(channel)]
        if channel == MONITOR:
            entries = edit(entries)
        stream = copy.stream(channel)
        for entry in entries:
            stream.append_entry(entry)
    return copy


def remote_deliveries(entries):
    return [i for i, e in enumerate(entries)
            if e.kind == DELIVER and e.dest != e.source]


class TestDoctoredStream:
    """Each failure class, from one edit to a clean run's stream."""

    UNTIL = 6.0

    @pytest.fixture(scope="class")
    def run(self):
        return Scenario(nodes=4, seed=5).with_stream().run(self.UNTIL)

    def audit(self, run, edit, **kwargs):
        return reconcile(doctored(run.stream, edit), until=self.UNTIL,
                         **kwargs)

    def test_dropped_delivery_is_missing(self, run):
        def drop_first(entries):
            del entries[remote_deliveries(entries)[0]]
            return entries

        report = self.audit(run, drop_first)
        assert [d.kind for d in report.missing] == ["missing"]
        assert "1 of 1 copies unaccounted" in report.missing[0].detail
        assert not report.ok
        assert "! missing: dproc.monitor" in report.render()
        dest = report.missing[0].dest
        assert report.per_host[dest]["loadavg"] == {"missing": 1}

    def test_copied_delivery_is_duplicated(self, run):
        def copy_first(entries):
            i = remote_deliveries(entries)[0]
            entries.insert(i, replace(entries[i]))
            return entries

        report = self.audit(run, copy_first)
        assert len(report.duplicated) == 1 and not report.missing
        assert "2 deliveries for 1 submits" in \
            report.duplicated[0].detail
        assert not report.ok
        assert "! duplicated:" in report.render()

    def test_orphan_delivery_is_unexpected(self, run):
        def add_orphan(entries):
            orphan = replace(entries[remote_deliveries(entries)[-1]],
                             submitted_at=self.UNTIL + 1.0,
                             time=self.UNTIL + 1.0)
            return entries + [orphan]

        report = self.audit(run, add_orphan)
        assert len(report.unexpected) == 1
        assert not report.missing and not report.duplicated
        assert not report.ok
        assert "! unexpected:" in report.render()

    def test_swapped_deliveries_are_out_of_order(self, run):
        def swap_pair(entries):
            first = remote_deliveries(entries)[0]
            pair = (entries[first].source, entries[first].dest)
            second = next(i for i in remote_deliveries(entries)[1:]
                          if (entries[i].source, entries[i].dest) == pair)
            entries[first], entries[second] = \
                entries[second], entries[first]
            return entries

        report = self.audit(run, swap_pair)
        assert len(report.out_of_order) == 1
        assert report.ok  # informational: no FIFO promise across sizes
        assert "out of order:   1" in report.render()

    def test_tiny_bound_makes_remote_deliveries_stale(self, run):
        report = reconcile(run.stream, until=self.UNTIL,
                           stale_after=1e-12)
        remote = len(remote_deliveries(list(run.stream.entries(MONITOR))))
        assert len(report.stale) >= remote > 0
        assert report.ok  # staleness is reported, not failed
        assert any("stale" in kinds for metrics in report.per_host.values()
                   for kinds in metrics.values())

    def test_bumped_cache_value_is_a_procfs_mismatch(self, run,
                                                     monkeypatch):
        host, dproc = next(iter(run.dprocs.items()))
        source, store = next(iter(dproc.dmon.remote.items()))
        metric, entry = next(iter(store.items()))
        monkeypatch.setitem(store, metric,
                            replace(entry, value=entry.value + 1.0))
        report = reconcile(run.stream, run.dprocs, until=self.UNTIL)
        assert [(d.source, d.dest) for d in report.procfs_mismatches] \
            == [(source, host)]
        assert "stream says" in report.procfs_mismatches[0].detail
        assert not report.ok
        assert "! procfs:" in report.render()

    def test_undelivered_cache_entry_is_a_procfs_mismatch(self, run,
                                                          monkeypatch):
        host, dproc = next(iter(run.dprocs.items()))
        monkeypatch.setitem(dproc.dmon.remote, "ghost", {
            MetricId.LOADAVG: RemoteMetric(value=1.0, timestamp=0.0)})
        report = reconcile(run.stream, run.dprocs, until=self.UNTIL)
        assert [(d.source, d.dest) for d in report.procfs_mismatches] \
            == [("ghost", host)]
        assert "no delivery in the stream" in \
            report.procfs_mismatches[0].detail
        assert not report.ok

    def test_render_caps_the_findings_listing(self, run):
        def drop_all_remote(entries):
            gone = set(remote_deliveries(entries))
            return [e for i, e in enumerate(entries) if i not in gone]

        report = self.audit(run, drop_all_remote)
        assert len(report.missing) > 20
        text = report.render()
        assert text.count("! missing:") == 20
        assert "... (more omitted)" in text
