"""Every instrument is passive: the monitored run cannot tell it is on.

One bare chaos run (loss, partition, crash + reboot — every fault path
the instruments hook), then the same run with each instrument
attached.  Whatever the instrument, the run must be the bare run, bit
for bit:

* ``report.trace`` — fault log, observed liveness transitions,
  recovery and rejoin times (was ``tests/tracing/test_e2e.py::
  test_tracing_is_passive`` for tracing and ``tests/stream/
  test_reconcile.py::test_report_trace_identical_with_stream_off`` for
  the stream tee; the obs plane had it only in a CI heredoc);
* ``report.overhead`` — the cluster-wide telemetry summary (was
  ``tests/obs/test_plane.py::TestPassivity::
  test_overhead_summary_identical``);
* every file under every node's ``/proc/cluster`` — metric values,
  liveness status, control logs and the dogfooded ``dproc/overhead``,
  ``dproc/channels`` and ``dproc/dmon`` telemetry dumps (was
  ``TestPassivity::test_procfs_identical``, one file of one node);
* the recorded stream bytes, between the runs that record one — the
  stream with the plane and the tracer on is the stream without (was
  ``TestPassivity::test_stream_bytes_bit_identical`` and the CI
  heredoc's chaos check).
"""

from __future__ import annotations

import pytest

from repro.harness.chaos import chaos_recovery
from repro.tracing import TraceCollector

CHAOS = dict(nodes=12, seed=11, duration=34.0)

#: Instrument → the ``Scenario`` call that switches it on.
SWITCH_ON = {
    "tracing": lambda sc: sc.with_tracing(
        TraceCollector(seed=CHAOS["seed"])),
    "stream": lambda sc: sc.with_stream(),
    "obs": lambda sc: sc.with_observability(),
}

#: Test id → the instruments that run has on.
INSTRUMENTS = {**{name: (name,) for name in SWITCH_ON},
               "all": tuple(SWITCH_ON)}


def run(instruments=()):
    def configure(sc):
        for name in instruments:
            SWITCH_ON[name](sc)
    return chaos_recovery(**CHAOS, configure=configure)


def cluster_files(report) -> dict:
    """Every ``/proc/cluster`` file of every node: path → text."""
    files = {}
    for name, dproc in report.scenario.dprocs.items():
        pending = ["/proc/cluster"]
        while pending:
            path = pending.pop()
            if dproc.procfs.is_dir(path):
                pending += [f"{path}/{entry}"
                            for entry in dproc.listdir(path)]
            else:
                files[name, path] = dproc.read(path)
    return files


@pytest.fixture(scope="module", params=["plain"])
def bare():
    """(bare report, its files, stream bytes seen so far).

    The one param keeps the test ids ``plain-<instrument>``."""
    report = run()
    return report, cluster_files(report), {}


@pytest.mark.parametrize("instrument", INSTRUMENTS)
def test_instrument_is_passive(bare, instrument):
    baseline, baseline_files, streams = bare
    report = run(INSTRUMENTS[instrument])
    assert report.trace == baseline.trace
    assert report.overhead == baseline.overhead
    files = cluster_files(report)
    assert len(files) > 12 * 12 * 20
    assert files == baseline_files
    if "stream" in INSTRUMENTS[instrument]:
        recorded = report.scenario.stream.serialize()
        assert recorded and streams.setdefault("bytes", recorded) \
            == recorded
    if "obs" in INSTRUMENTS[instrument]:
        # The plane did observe the run it left untouched.
        assert report.scenario.obs.samples_taken > 0
        assert report.scenario.obs.transitions
