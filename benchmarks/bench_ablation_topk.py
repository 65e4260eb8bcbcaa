"""Ablation — sketch-backed top-K source filtering vs the paper's knobs.

The per-process table is d-mon's highest-volume stream: every poll
ships ``n_procs`` rows of (pid, cpu, mem, io).  The paper's resource-
aware tools — update periods and thresholds — govern *scalar* metrics,
so they cannot compress the keyed firehose at all; a sketch-backed
top-K filter (count-min + bounded heap, compiled from E-code at the
publisher) replaces the table with K (pid, cumulative-weight) pairs.

Four variants of the same cluster:

* ``full``      — no customization: the whole table rides every event;
* ``period``    — update periods stretched 4x on every scalar metric
                  (the classic volume knob; keyed rows unaffected);
* ``threshold`` — 15% change-thresholds on every scalar metric
                  (the classic relevance knob; keyed rows unaffected);
* ``topk``      — a ``topk_filter(5, "cpu")`` E-code filter scoped to
                  the proc module on every publisher.

The test asserts the point of the subsystem: top-K cuts record volume
by >= 5x and monitor CPU measurably below the baseline, while the
scalar-only knobs leave the keyed stream untouched.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.dproc import DMonConfig, topk_source
from repro.dproc.params import ChangeThreshold

MODULES = ("cpu", "mem", "proc")
NODES = 64
DURATION = 10.0
POLL = 1.0
N_PROCS = 24
WATCHERS = 4
K = 5
PERIOD_STRETCH = 4.0
THRESHOLD_PCT = 15.0

#: The acceptance gate: top-K must cut record volume at least this much.
MIN_VOLUME_REDUCTION = 5.0

#: The table this bench printed before it was built through ``Scenario``:
#: counts exact, CPU seconds to 1e-9 relative.  A change that moves a
#: simulated value moves a row; restate it on purpose.
EXPECTED = {  # variant: (events, records, monitor CPU seconds)
    "full": (640, 49280, 1.657220608000008),
    "period": (640, 47040, 1.6462892560000024),
    "threshold": (640, 46816, 1.6451724940000034),
    "topk": (640, 4480, 1.4457681279999963),
}


def configure(sc: Scenario, variant: str) -> None:
    """On every d-mon: size the process table, apply the variant's knob."""
    for dproc in sc.dprocs.values():
        dmon = dproc.dmon
        dmon.modules["proc"].configure("nprocs", N_PROCS)
        if variant == "period":
            for policy in dmon.policies.values():
                policy.set_period(POLL * PERIOD_STRETCH)
        elif variant == "threshold":
            for policy in dmon.policies.values():
                policy.add_threshold(ChangeThreshold(THRESHOLD_PCT))
        elif variant == "topk":
            dmon.filters.deploy(topk_source(K, "cpu"), scope="proc",
                                filter_id="topk")


def run_variant(variant: str) -> dict:
    sc = (Scenario(nodes=NODES, seed=7,
                   dmon=DMonConfig(poll_interval=POLL), modules=MODULES,
                   watchers=WATCHERS)
          .with_setup(lambda sc: configure(sc, variant))
          .run_until(DURATION))
    for node in sc.nodes:
        node.cpu.settle()
    overhead = sc.overhead()
    return {
        "events": overhead["events_published"],
        "records": overhead["records_published"],
        "monitor_cpu": overhead["monitor_cpu_seconds"]["total"],
    }


def test_topk_compresses_the_keyed_stream(benchmark):
    variants = ("full", "period", "threshold", "topk")
    results = benchmark.pedantic(
        lambda: {v: run_variant(v) for v in variants},
        rounds=1, iterations=1)
    print()
    print(f"== ablation: top-K source filtering ({NODES} nodes) ==")
    print(f"  {'variant':<10} {'events':>9} {'records':>10} "
          f"{'monitor CPU (s)':>15}")
    for v in variants:
        r = results[v]
        print(f"  {v:<10} {r['events']:9.0f} {r['records']:10.0f} "
              f"{r['monitor_cpu']:15.3f}")
    for v in variants:
        r = results[v]
        events, records, monitor_cpu = EXPECTED[v]
        assert (r["events"], r["records"]) == (events, records)
        assert r["monitor_cpu"] == pytest.approx(monitor_cpu, rel=1e-9)
    full, topk = results["full"], results["topk"]

    assert full["records"] / max(topk["records"], 1.0) \
        >= MIN_VOLUME_REDUCTION
    assert topk["monitor_cpu"] < full["monitor_cpu"]
    # The scalar-only knobs must leave the keyed stream untouched —
    # the asymmetry that motivates sketch filtering at the source.
    for scalar_knob in ("period", "threshold"):
        assert results[scalar_knob]["records"] > topk["records"]
