"""Ablation — d-mon polling interval: freshness vs. overhead.

The paper fixes d-mon's polling at one second ("Every second, d-mon
polls each of the registered monitoring modules") and exposes update
periods *per metric* on top.  This bench quantifies the underlying
knob: faster polling keeps remote caches fresher but charges
proportionally more kernel CPU — the overhead curve that motivates
putting applications (not the toolkit) in charge of rates.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.dproc import DMonConfig, MetricId

INTERVALS = (0.25, 0.5, 1.0, 2.0, 4.0)
DURATION = 60.0
METRICS = frozenset({MetricId.LOADAVG, MetricId.FREEMEM,
                     MetricId.DISKUSAGE, MetricId.NET_BANDWIDTH})

#: The table this bench printed before it was built through ``Scenario``,
#: its seconds and CPU fractions to 1e-9 relative.  A change that moves a
#: simulated value moves a row; restate it on purpose.
EXPECTED = {  # interval: (staleness seconds, monitor CPU fraction)
    0.25: (0.1132387364814728, 0.006663772799999949),
    0.5: (0.22660859296294453, 0.003331886399999983),
    1.0: (0.453348305925888, 0.0016659432000000031),
    2.0: (0.9068277318517749, 0.0008329716),
    4.0: (1.8137865837035463, 0.0004164857999999997),
}


def run_interval(interval: float):
    sc = Scenario(nodes=4, seed=3,
                  dmon=DMonConfig(poll_interval=interval,
                                  metric_subset=METRICS),
                  modules=("cpu", "mem", "disk", "net")).run_until(DURATION)
    names = sc.nodes.names
    dmon = sc.dprocs[names[0]].dmon
    # Mean staleness of what this node knows about its peers.
    ages = [dmon.peer_age(host) for host in names[1:]
            if dmon.remote_value(host, MetricId.FREEMEM) is not None]
    cpu_per_sec = (dmon.mean_submit_overhead(since=DURATION * 0.2)
                   + dmon.mean_receive_overhead(
                       since=DURATION * 0.2)) / interval
    return {
        "staleness": sum(ages) / len(ages) if ages else float("inf"),
        "cpu_fraction": cpu_per_sec,
    }


def test_poll_interval_tradeoff(benchmark):
    results = benchmark.pedantic(
        lambda: {i: run_interval(i) for i in INTERVALS},
        rounds=1, iterations=1)
    print()
    print("== ablation: d-mon polling interval (4 nodes) ==")
    print(f"  {'interval (s)':>12} {'staleness (s)':>13} "
          f"{'monitor CPU':>11}")
    for i in INTERVALS:
        r = results[i]
        print(f"  {i:12g} {r['staleness']:13.2f} "
              f"{r['cpu_fraction'] * 100:10.4f}%")
        assert (r["staleness"], r["cpu_fraction"]) \
            == pytest.approx(EXPECTED[i], rel=1e-9)

    staleness = [results[i]["staleness"] for i in INTERVALS]
    cpu = [results[i]["cpu_fraction"] for i in INTERVALS]

    # Faster polling => fresher data but more CPU.
    assert staleness == sorted(staleness)
    assert cpu == sorted(cpu, reverse=True)

    # The cost scales ~linearly with the polling rate: 4x faster
    # polling costs ~4x the CPU.
    ratio = cpu[0] / cpu[2]  # 0.25 s vs 1.0 s
    assert 2.5 < ratio < 6.0

    # At the paper's default (1 s) the total overhead stays small.
    assert cpu[2] < 0.01
