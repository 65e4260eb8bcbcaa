"""Ablation — CPU_MON averaging period: responsiveness vs overhead.

The paper motivates CPU_MON by noting that /proc/loadavg's fixed
1/5/15-minute averages "may not be useful in a fast system with
constantly varying CPU load", so dproc lets applications choose the
run-queue averaging period.  This bench quantifies the trade-off the
design exposes: short periods detect load changes quickly but wake the
sampling kernel thread more often.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.dproc import CpuMon

#: The table this bench printed when the sampler's CPU became a
#: measurement, its seconds and CPU fractions to 1e-9 relative.  A change
#: that moves a simulated value moves a row; restate it on purpose.
EXPECTED = {  # period: (detection seconds, sampler CPU fraction)
    1.0: (1.0, 0.00039999999998939587),
    5.0: (4.0, 7.99999999978737e-05),
    30.0: (24.0, 1.333333333299443e-05),
}


def busy_before(sc: Scenario, step_at: float) -> float:
    """The one node's busy CPU seconds over the quiet window before the
    load step."""
    sc.run_until(step_at)
    node = sc.nodes["alan"]
    node.cpu.settle()
    return node.cpu.busy_cpu_seconds


def run_period(avg_period: float, duration: float = 120.0):
    """Measure detection delay of a load step and sampler CPU cost."""
    # No dproc: the module is measured on its own.
    sc = Scenario(nodes=1, seed=3, monitor_hosts=0).build()
    env, node = sc.env, sc.nodes["alan"]
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
    # Sampler cost: the node's busy CPU before the step, less that of
    # a twin run without CpuMon over the same window.
    busy = busy_before(sc, step_at)
    twin = busy_before(Scenario(nodes=1, seed=3, monitor_hosts=0).build(),
                       step_at)
    sc.run_until(duration)
    return {
        "detect_seconds": detection.get("detected", float("inf")),
        "sampler_cpu_fraction": (busy - twin) / step_at,
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
        assert (r["detect_seconds"], r["sampler_cpu_fraction"]) \
            == pytest.approx(EXPECTED[p], rel=1e-9)

    detects = [results[p]["detect_seconds"] for p in periods]
    costs = [results[p]["sampler_cpu_fraction"] for p in periods]

    # Shorter periods detect the load step faster...
    assert detects == sorted(detects)
    assert detects[0] < 2.0
    assert detects[-1] > 10.0

    # ...but wake the sampler more often.
    assert costs == sorted(costs, reverse=True)
