#!/usr/bin/env python
"""Run-time extensibility: battery monitoring on a mobile client.

Straight from the paper's §1: filters "can dynamically deploy
monitoring functionality available in the remote kernel but not
directly supported in dproc (such as the monitoring of the current
battery power in mobile devices)" — and the future work makes power a
first-class resource for wireless clients.

This example registers a BATTERY_MON module on a *running* d-mon (no
restart, no recompile — the paper's loadable-kernel-module claim),
then sets a threshold so the server only hears about the battery once
it drops below 30 %, and finally lets the server throttle the stream
to stretch the client's remaining charge.

Run:  python examples/mobile_client.py
"""

from __future__ import annotations

from repro.api import Scenario
from repro.dproc import BatteryMon, MetricId
from repro.sim import Battery, NodeConfig
from repro.smartpointer import (ClientCapabilities, DynamicAdaptation,
                                SmartPointerClient, SmartPointerServer,
                                StreamProfile, Transform)
from repro.units import KB


def main() -> None:
    batteries = {}

    def fit_battery(sc: Scenario) -> None:
        # The battery exists before d-mon starts, as on a real device.
        batteries["ipaq"] = Battery(sc.nodes["ipaq"],
                                    capacity_joules=4000.0)  # handheld

    sc = (Scenario(2, seed=99, names=["server", "ipaq"],
                   node_configs=[NodeConfig(n_cpus=4),
                                 NodeConfig(n_cpus=1, mflops_per_cpu=4.0)])
          .with_cluster_setup(fit_battery)
          .run_until(3.0))
    env, cluster, dprocs = sc.env, sc.nodes, sc.dprocs
    ipaq, battery = cluster["ipaq"], batteries["ipaq"]

    # --- run-time module deployment -----------------------------------
    print("modules before:", sorted(dprocs["ipaq"].dmon.modules))
    dprocs["ipaq"].dmon.register_service(BatteryMon(ipaq, battery))
    print("modules after: ", sorted(dprocs["ipaq"].dmon.modules))

    # Only report the battery when it matters (below 30%).
    dprocs["server"].write("/proc/cluster/ipaq/control",
                           "threshold battery below 30")

    # --- stream to the handheld ---------------------------------------
    profile = StreamProfile(base_size=KB(100), base_client_cost=0.8)
    client = SmartPointerClient(ipaq).start()
    server = SmartPointerServer(cluster["server"],
                                dproc=dprocs["server"])
    stream = server.add_client(
        "ipaq", profile, rate=2.0,
        policy=DynamicAdaptation(resources=("cpu",)),
        caps=ClientCapabilities(mflops=4.0, n_cpus=1))

    # A supervisor on the server watches the remote battery entry and
    # downgrades the stream once low-battery reports arrive.
    throttled = {}

    def battery_guard():
        while not throttled:
            yield env.timeout(5.0)
            reading = dprocs["server"].metric("ipaq", MetricId.BATTERY)
            if reading == reading and reading < 30.0:  # not NaN, low
                stream.policy = _low_power_policy()
                throttled["at"] = env.now
                throttled["level"] = reading

    def _low_power_policy():
        from repro.smartpointer import StaticAdaptation
        return StaticAdaptation(Transform(downsample=0.25,
                                          content=0.55))

    env.process(battery_guard())

    print(f"\n{'t (s)':>7} {'battery %':>9} {'draw (W)':>8} "
          f"{'reported?':>9} {'events rx':>9}")
    last_drain, last_t = battery.drained_joules(), env.now
    for checkpoint in range(200, 2001, 300):
        sc.run_until(checkpoint)
        drained = battery.drained_joules()
        watts = (drained - last_drain) / (env.now - last_t)
        last_drain, last_t = drained, env.now
        remote = dprocs["server"].metric("ipaq", MetricId.BATTERY)
        reported = "yes" if remote == remote else "no (>30%)"
        print(f"{env.now:7.0f} {battery.level_percent():9.1f} "
              f"{watts:8.2f} {reported:>9} "
              f"{client.processed.total:9.0f}")

    if throttled:
        print(f"\nlow battery reported at t={throttled['at']:.0f}s "
              f"({throttled['level']:.1f}%); stream throttled to "
              f"quarter resolution, positions only.")
    print(f"battery at end: {battery.level_percent():.1f}% "
          f"(drained {battery.drained_joules():.0f} J)")


if __name__ == "__main__":
    main()
