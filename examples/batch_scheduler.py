#!/usr/bin/env python
"""The paper's batch-queue scheduler scenario.

From §3: "imagine that the batch-queue scheduler is not interested in
loadavg, but instead in the amount of free memory.  However, it still
wants the memory information to be updated only if there is a free CPU
to run its process on.  So it will tie the update period of the memory
information to the load average dropping below the number of CPUs."

A toy scheduler on one node watches every other node through
/proc/cluster and dispatches queued jobs to nodes whose FREEMEM reading
is *fresh* (sampled at the source less than ``FRESHNESS`` seconds
ago) — which, thanks to the deployed filter, is exactly the set of
nodes with a free CPU and enough memory.

Run:  python examples/batch_scheduler.py
"""

from __future__ import annotations

import math

from repro.api import Scenario
from repro.dproc import MetricId
from repro.units import MB
from repro.workloads import Linpack

FRESHNESS = 3.0      # seconds a FREEMEM reading stays trustworthy
JOB_MEMORY = MB(64)  # what one batch job needs
JOB_WORK = 200.0     # Mflop per job


def scheduler_filter(n_cpus: int) -> str:
    """FREEMEM flows only while a CPU is free (loadavg < #CPUs)."""
    return f"""filter * id=batch
{{
    int i = 0;
    if (input[LOADAVG].value < {n_cpus}) {{
        output[i] = input[FREEMEM];
        i = i + 1;
    }}
}}"""


def main() -> None:
    sc = Scenario(nodes=4, seed=23).build()
    env, cluster, dprocs = sc.env, sc.nodes, sc.dprocs
    head = dprocs["alan"]
    workers = [n for n in cluster.names if n != "alan"]

    # Make the CPU averaging responsive, then deploy the filter on
    # every worker from the head node.
    for name in workers:
        dprocs[name].dmon.modules["cpu"].configure("period", 4.0)
        head.write(f"/proc/cluster/{name}/control",
                   scheduler_filter(cluster[name].cpu.n_cpus))
    sc.run_until(5.0)

    # Pre-load etna so it has no free CPU: the scheduler should skip it.
    for _ in range(2):
        Linpack(cluster["etna"]).start()

    queued = 12
    dispatched: dict[str, int] = {name: 0 for name in workers}

    def scheduler():
        nonlocal queued
        while queued > 0:
            yield env.timeout(2.0)
            for name in workers:
                if queued == 0:
                    break
                entry = head.dmon.remote_value(name, MetricId.FREEMEM)
                fresh = (entry is not None
                         and env.now - entry.timestamp < FRESHNESS)
                if not fresh:
                    continue  # no free CPU there (or no data yet)
                if entry.value < JOB_MEMORY:
                    continue  # not enough memory
                queued -= 1
                dispatched[name] += 1
                node = cluster[name]
                mem = node.memory.allocate(JOB_MEMORY, tag="batch")
                done = node.cpu.execute(JOB_WORK, name="batch-job")
                done.add_callback(lambda _ev, m=mem: m.free())

    env.process(scheduler())
    sc.run_until(120.0)

    print("batch scheduler results after 120 s:")
    for name in workers:
        note = "  (was CPU-saturated)" if name == "etna" else ""
        print(f"  {name}: {dispatched[name]} jobs{note}")
    print(f"  jobs left in queue: {queued}")
    total_loaded = dispatched["etna"]
    total_free = sum(dispatched[n] for n in workers if n != "etna")
    print(f"\nnodes with a free CPU received {total_free} jobs; the "
          f"saturated node received {total_loaded}.")
    print("The filter meant the head node never even received memory "
          "updates from busy nodes -- zero polling, zero stale data.")


if __name__ == "__main__":
    main()
