#!/usr/bin/env python
"""SmartPointer: resource-aware stream management end to end.

Reproduces the paper's §4.2 story in one run: a visualization server
streams molecular-dynamics frames to a client; linpack threads start on
the client; without dproc the stream drowns the client, with dproc the
server customizes the stream and the client keeps up.

Run:  python examples/smartpointer_demo.py
"""

from __future__ import annotations

from repro.api import Scenario
from repro.dproc import DMonConfig
from repro.sim import NodeConfig
from repro.smartpointer import (ClientCapabilities, DynamicAdaptation,
                                NoAdaptation, SmartPointerClient,
                                SmartPointerServer, StreamProfile)
from repro.units import KB
from repro.workloads import Linpack

PROFILE = StreamProfile(base_size=KB(200), base_client_cost=2.4,
                        server_preprocess_cost=2.0)
RATE = 5.0  # events per second


def run_scenario(policy, label: str) -> None:
    sc = Scenario(
        2, seed=11, names=["server", "client"],
        node_configs=[NodeConfig(n_cpus=4), NodeConfig(n_cpus=1)],
        dmon=DMonConfig(poll_interval=1.0)).build()
    cluster, dprocs = sc.nodes, sc.dprocs
    for dp in dprocs.values():
        dp.dmon.modules["cpu"].configure("period", 5.0)

    client = SmartPointerClient(cluster["client"]).start()
    server = SmartPointerServer(cluster["server"],
                                dproc=dprocs["server"])
    stream = server.add_client(
        "client", PROFILE, rate=RATE, policy=policy,
        caps=ClientCapabilities(mflops=17.4, n_cpus=1))

    print(f"\n--- {label} ---")
    print(f"{'t (s)':>6} {'threads':>7} {'rate/s':>7} "
          f"{'latency (s)':>11} {'quality':>8}")
    threads = 0
    for phase_end in (60, 120, 180, 240):
        sc.run_until(phase_end)
        window = 30.0
        rate = client.event_rate(window)
        try:
            latency = client.latencies.mean(since=phase_end - window)
        except ValueError:
            latency = float("nan")
        quality = stream.quality
        print(f"{sc.env.now:6.0f} {threads:7d} {rate:7.2f} "
              f"{latency:11.3f} {quality:8.2f}")
        # two more linpack threads per phase
        for _ in range(2):
            Linpack(cluster["client"]).start()
        threads += 2


def main() -> None:
    print("SmartPointer under rising client CPU load "
          f"({PROFILE.base_size / 1024:.0f} KB frames at {RATE}/s)")
    run_scenario(NoAdaptation(), "no filter (original SmartPointer)")
    run_scenario(DynamicAdaptation(resources=("cpu",)),
                 "dynamic filter using dproc CPU monitoring")
    print("\nWith dproc, the server learns the client's load average "
          "and pre-renders\nframes so the client keeps processing at "
          "the full rate.")


if __name__ == "__main__":
    main()
