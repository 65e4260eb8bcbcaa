"""Ablation — CPU_MON averaging period: responsiveness vs overhead.

The paper motivates CPU_MON by noting that /proc/loadavg's fixed
1/5/15-minute averages "may not be useful in a fast system with
constantly varying CPU load", so dproc lets applications choose the
run-queue averaging period.  This bench quantifies the trade-off the
design exposes: short periods detect load changes quickly but wake the
sampling kernel thread more often.
"""

from __future__ import annotations

from repro.dproc import CpuMon
from repro.sim import Environment, build_cluster


def run_period(avg_period: float, duration: float = 120.0):
    """Measure detection delay of a load step and sampler CPU cost."""
    env = Environment()
    cluster = build_cluster(env, 1, seed=3)
    node = cluster["alan"]
    mon = CpuMon(node, avg_period=avg_period)
    mon.start()
    step_at = duration / 2

    detection = {}

    def load_step():
        yield env.timeout(step_at)
        for _ in range(4):
            node.cpu.execute(1e9)

    def probe():
        while "detected" not in detection:
            yield env.timeout(0.5)
            if env.now > step_at:
                (value,) = mon.collect(env.now)
                if value >= 3.0:  # within 25% of the true 4
                    detection["detected"] = env.now - step_at

    env.process(load_step())
    env.process(probe())
    env.run(until=duration)
    node.cpu.settle()
    # Sampler cost: tasklist walks at the configured wake-up rate.
    walks_per_sec = 1.0 / mon.sample_interval
    cost_per_sec = walks_per_sec * node.costs.tasklist_walk
    return {
        "detect_seconds": detection.get("detected", float("inf")),
        "sampler_cpu_fraction": cost_per_sec,
    }


def test_cpu_mon_period_tradeoff(benchmark):
    periods = (1.0, 5.0, 30.0)
    results = benchmark.pedantic(
        lambda: {p: run_period(p) for p in periods},
        rounds=1, iterations=1)
    print()
    print("== ablation: CPU_MON averaging period ==")
    print(f"  {'period (s)':>10s} {'detect (s)':>11s} "
          f"{'sampler CPU':>12s}")
    for p in periods:
        r = results[p]
        print(f"  {p:10g} {r['detect_seconds']:11.2f} "
              f"{r['sampler_cpu_fraction'] * 100:11.4f}%")

    detects = [results[p]["detect_seconds"] for p in periods]
    costs = [results[p]["sampler_cpu_fraction"] for p in periods]

    # Shorter periods detect the load step faster...
    assert detects == sorted(detects)
    assert detects[0] < 2.0
    assert detects[-1] > 10.0

    # ...but wake the sampler more often.
    assert costs == sorted(costs, reverse=True)
