"""Scalability ablation — peer-to-peer dproc vs. a central collector.

The paper's architectural claim (§1, related work): dproc's
"full peer-to-peer communications at kernel-level … improv[es]
communication performance through avoiding central master collection
points (scalability of communications, fault tolerance)", in contrast
to Supermon's "centralized data concentrator".

Both architectures are run with identical cost models and metric sets
so that every node ends up knowing every node's state.  The measure is
the *hottest node's* monitoring CPU: p2p load is uniform, while the
central collector pays for n pushes in and an O(n)-sized digest out to
n-1 nodes — a per-node cost that grows with a steeper slope and
concentrates on one machine.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.dproc import DMonConfig, MetricId
from repro.dproc.central import CentralCollector

SIZES = (8, 16, 32, 48)
DURATION = 40.0
METRICS = frozenset({MetricId.LOADAVG, MetricId.FREEMEM,
                     MetricId.DISKUSAGE, MetricId.NET_BANDWIDTH})

#: The table this bench printed before it was built through ``Scenario``,
#: its CPU fractions to 1e-9 relative.  A change that moves a simulated
#: value moves a row; restate it on purpose.
EXPECTED = {  # nodes: (p2p hottest CPU fraction, central's)
    8: (0.0038523207999999905, 0.005575594400000008),
    16: (0.008225075999999935, 0.012202916000000083),
    32: (0.016970586400000168, 0.026827056799999666),
    48: (0.025716096800000296, 0.04327719440000073),
}


def run_p2p(n: int) -> float:
    """Max per-node monitoring CPU fraction under dproc."""
    sc = Scenario(nodes=n, seed=1, dmon=DMonConfig(metric_subset=METRICS),
                  modules=("cpu", "mem", "disk", "net")).run_until(DURATION)
    worst = 0.0
    for dproc in sc.dprocs.values():
        dmon = dproc.dmon
        per_poll = (dmon.mean_submit_overhead(since=DURATION * 0.2)
                    + dmon.mean_receive_overhead(since=DURATION * 0.2))
        worst = max(worst, per_poll / dmon.config.poll_interval)
    return worst


def run_central(n: int) -> float:
    """Max per-node monitoring CPU fraction under a central collector."""
    sc = Scenario(nodes=n, seed=1, monitor_hosts=0).build()
    central = CentralCollector(
        sc.nodes, collector=sc.nodes.names[0],
        metrics=METRICS).start()
    sc.run_until(DURATION)
    _host, cpu_seconds = central.hottest_node()
    return cpu_seconds / DURATION


def test_p2p_load_stays_flatter_than_central(benchmark):
    results = benchmark.pedantic(
        lambda: {n: (run_p2p(n), run_central(n)) for n in SIZES},
        rounds=1, iterations=1)
    print()
    print("== scalability: hottest node's monitoring CPU fraction ==")
    print(f"  {'nodes':>5} {'p2p (dproc)':>12} {'central':>12} "
          f"{'central/p2p':>11}")
    for n in SIZES:
        p2p, central = results[n]
        ratio = central / p2p if p2p else float("inf")
        print(f"  {n:5d} {p2p:12.5f} {central:12.5f} {ratio:11.2f}")
        assert results[n] == pytest.approx(EXPECTED[n], rel=1e-9)

    # Both grow with cluster size...
    p2p_curve = [results[n][0] for n in SIZES]
    central_curve = [results[n][1] for n in SIZES]
    assert p2p_curve == sorted(p2p_curve)
    assert central_curve == sorted(central_curve)

    # ...but the central collector's hotspot grows strictly faster and
    # dominates at scale (the Supermon scalability problem).
    assert central_curve[-1] > p2p_curve[-1] * 1.5
    central_slope = central_curve[-1] / central_curve[0]
    p2p_slope = p2p_curve[-1] / p2p_curve[0]
    assert central_slope > p2p_slope


def test_central_baseline_is_functionally_complete():
    """Sanity: the baseline actually disseminates everyone's data."""
    sc = Scenario(nodes=4, seed=2, monitor_hosts=0).build()
    names = sc.nodes.names
    central = CentralCollector(
        sc.nodes, collector=names[0], metrics=METRICS).start()
    sc.run_until(10.0)
    # The last node has learned the first node's free memory via the
    # collector's digest.
    value = central.view(names[-1], names[0], MetricId.FREEMEM)
    assert value is not None and value > 0
