#!/usr/bin/env python
"""`dtop`: a cluster-wide top(1) fed by the durable event stream.

The classic consumer of a monitoring system: a live, whole-cluster
resource table.  This version tails the broker's ``dproc.monitor``
stream past its own cursor (read → apply, the hsm-action-top
pattern) instead of polling one node's /proc/cluster snapshot — so
its rows are exactly what the channel delivered, it keeps working
across crashes by replay, and every host that ever published
appears, whatever subset of metrics it reported.  Alarms
still fire on threshold crossings while it runs: one hook on alan's
d-mon sees every remote value as it lands, fires on a rising edge and
re-arms once the value has cleared the bound by 10 %.  The closing
placement answers (least-loaded host, most free memory) come from
alan's ``ClusterView``, which counts only hosts whose
``/proc/cluster/<host>/status`` reads fresh, so a host that stopped
reporting is never named.

Run:  python examples/cluster_top.py
"""

from __future__ import annotations

from repro.api import Scenario
from repro.dproc import ClusterView, MetricId
from repro.stream import StreamTop
from repro.units import MB
from repro.workloads import AmbientActivity, Linpack


def watch_alarms(dmon, lines: list[str]) -> None:
    """Append an ALARM line to ``lines`` when a host's load average
    rises above 2.0 or its free memory falls under 150 MB.  A host
    that fired re-arms once its value has cleared the bound by 10 %."""
    fired: set[tuple[MetricId, str]] = set()

    def on_update(host: str, metric: MetricId, value: float,
                  _ts: float) -> None:
        if metric is MetricId.LOADAVG:
            firing, cleared = value > 2.0, value * 1.1 <= 2.0
        elif metric is MetricId.FREEMEM:
            firing, cleared = value < MB(150), value / 1.1 >= MB(150)
        else:
            return
        key = (metric, host)
        if key in fired:
            if cleared:
                fired.discard(key)
        elif firing:
            fired.add(key)
            lines.append(
                f"ALARM {host}: loadavg {value:.2f} > 2.0 at "
                f"t={dmon.node.env.now:.0f}s"
                if metric is MetricId.LOADAVG else
                f"ALARM {host}: free memory down to "
                f"{value / 2**20:.0f} MiB")

    dmon.update_hooks.append(on_update)


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
    watch_alarms(dprocs["alan"].dmon, alarm_lines)

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
