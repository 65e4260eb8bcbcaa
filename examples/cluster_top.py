#!/usr/bin/env python
"""`dtop`: a cluster-wide top(1) fed by the durable event stream.

The classic consumer of a monitoring system: a live, whole-cluster
resource table.  This version tails the broker's ``dproc.monitor``
stream past its own cursor (read → apply, the hsm-action-top
pattern) instead of polling one node's /proc/cluster snapshot — so
its rows are exactly what the channel delivered, it keeps working
across crashes by replay, and every host that ever published
appears, whatever subset of metrics it reported.  Alarms
still fire on threshold crossings while it runs.  The closing
placement answers (least-loaded host, most free memory) come from
alan's ``ClusterView``, which counts only hosts whose
``/proc/cluster/<host>/status`` reads fresh, so a host that stopped
reporting is never named.

Run:  python examples/cluster_top.py
"""

from __future__ import annotations

from repro.api import Scenario
from repro.dproc import ClusterView, MetricId
from repro.dproc.alarms import AlarmManager
from repro.stream import StreamTop
from repro.units import MB
from repro.workloads import AmbientActivity, Linpack


def draw(top: StreamTop, env, alarms) -> None:
    applied = top.feed()
    print(f"\n--- dtop @ t={env.now:.0f}s "
          f"(+{applied} events from the stream) ---")
    print(top.render(now=env.now))
    if alarms:
        for line in alarms:
            print(f"  ! {line}")
        alarms.clear()


def main() -> None:
    scenario = Scenario(nodes=4, seed=31).with_stream().build()
    env = scenario.env
    cluster = scenario.nodes
    dprocs = scenario.dprocs
    for node in cluster:
        AmbientActivity(node, intensity=0.5).start()
    for dp in dprocs.values():
        dp.dmon.modules["cpu"].configure("period", 5.0)

    top = StreamTop(scenario.stream)
    alarm_lines: list[str] = []
    manager = AlarmManager(dprocs["alan"].dmon)
    manager.watch_above(
        MetricId.LOADAVG, 2.0,
        lambda a, h, v, t: alarm_lines.append(
            f"ALARM {h}: loadavg {v:.2f} > 2.0 at t={t:.0f}s"))
    manager.watch_below(
        MetricId.FREEMEM, MB(150),
        lambda a, h, v, t: alarm_lines.append(
            f"ALARM {h}: free memory down to {v / 2**20:.0f} MiB"))

    # Phase 1: quiet cluster.
    scenario.run_until(10.0)
    draw(top, env, alarm_lines)

    # Phase 2: someone starts a parallel job on maui + kilauea.
    for name in ("maui", "kilauea"):
        for _ in range(3):
            Linpack(cluster[name]).start()
    scenario.run_until(60.0)
    draw(top, env, alarm_lines)

    # Phase 3: etna leaks memory.
    cluster["etna"].memory.allocate(MB(350), tag="leak")
    scenario.run_until(90.0)
    draw(top, env, alarm_lines)

    view = ClusterView(dprocs["alan"])
    idle, _load = view.extreme(MetricId.LOADAVG, largest=False)
    roomy, _free = view.extreme(MetricId.FREEMEM)
    print(f"\nleast loaded node right now: {idle}")
    print(f"most free memory:            {roomy}")
    print(f"stream: {scenario.stream.total_entries()} entries, "
          f"{top.events_consumed} consumed by dtop")


if __name__ == "__main__":
    main()
