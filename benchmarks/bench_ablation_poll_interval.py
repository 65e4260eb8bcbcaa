"""Ablation — d-mon polling interval: freshness vs. overhead.

The paper fixes d-mon's polling at one second ("Every second, d-mon
polls each of the registered monitoring modules") and exposes update
periods *per metric* on top.  This bench quantifies the underlying
knob: faster polling keeps remote caches fresher but charges
proportionally more kernel CPU — the overhead curve that motivates
putting applications (not the toolkit) in charge of rates.
"""

from __future__ import annotations

from repro.dproc import DMonConfig, MetricId, deploy_dproc
from repro.sim import Environment, build_cluster

INTERVALS = (0.25, 0.5, 1.0, 2.0, 4.0)
DURATION = 60.0
METRICS = frozenset({MetricId.LOADAVG, MetricId.FREEMEM,
                     MetricId.DISKUSAGE, MetricId.NET_BANDWIDTH})


def run_interval(interval: float):
    env = Environment()
    cluster = build_cluster(env, nodes=4, seed=3)
    dprocs = deploy_dproc(
        cluster,
        config=DMonConfig(poll_interval=interval,
                          metric_subset=METRICS),
        modules=("cpu", "mem", "disk", "net"))
    env.run(until=DURATION)
    dmon = dprocs[cluster.names[0]].dmon
    # Mean staleness of what this node knows about its peers.
    ages = [dmon.peer_age(host) for host in cluster.names[1:]
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
