#!/usr/bin/env python
"""Dynamic E-code filters: deploy the paper's Figure 3 filter remotely.

Shows the full filter path: an application on one node writes an E-code
source string to another node's control file; dproc ships it over the
KECho control channel; the receiving d-mon compiles it to native code
and runs it before every publication.  The filter implements complex
cross-resource subscription criteria and cuts monitoring traffic.

Run:  python examples/custom_filter.py
"""

from __future__ import annotations

from repro.api import Scenario
from repro.dproc import DMonConfig
from repro.units import MB
from repro.workloads import Linpack

# The filter from the paper's Figure 3, verbatim (modulo whitespace):
# publish the load average only when it exceeds 2; publish disk usage
# and free memory together only when the disk is busy AND memory is
# short; publish cache misses only when they increased.
FIGURE3_FILTER = """filter * id=fig3
{
    int i = 0;
    if(input[LOADAVG].value > 2){
        output[i] = input[LOADAVG];
        i = i + 1;
    }
    if(input[DISKUSAGE].value > 10000 &&
       input[FREEMEM].value < 50e6){
        output[i] = input[DISKUSAGE];
        i = i + 1;
        output[i] = input[FREEMEM];
        i = i + 1;
    }
    if(input[CACHE_MISS].value > input[CACHE_MISS].last_value_sent){
        output[i] = input[CACHE_MISS];
        i = i + 1;
    }
}"""


def records_published(dmon) -> float:
    """Cumulative records this d-mon has published (its telemetry)."""
    return dmon.node.telemetry.value("dmon.records_published")


def main() -> None:
    scenario = Scenario(nodes=2, seed=7,
                        dmon=DMonConfig(poll_interval=1.0)).build()
    env = scenario.env
    cluster = scenario.nodes
    dprocs = scenario.dprocs
    alan, maui = dprocs["alan"], dprocs["maui"]

    # Unfiltered baseline: maui publishes all metrics every second.
    scenario.run_until(30.0)
    base_rate = records_published(maui.dmon) / env.now
    print(f"unfiltered: maui publishes {base_rate:.1f} records/s")

    # Deploy the Figure 3 filter on maui *from alan*.
    alan.write("/proc/cluster/maui/control", FIGURE3_FILTER)
    scenario.run_until(32.0)  # let the control message propagate
    deployed = maui.dmon.filters.global_filter
    print(f"deployed filter {deployed.filter_id!r} on maui "
          f"(compiled at the target host, "
          f"{len(deployed.source)} bytes of E-code)")

    # Quiet system: all three conditions are false -> nothing flows.
    mark, before = env.now, records_published(maui.dmon)
    scenario.run_until(mark + 60.0)
    quiet = (records_published(maui.dmon) - before) / (env.now - mark)
    print(f"filtered, idle:   {quiet:.2f} records/s "
          f"(traffic cut by {100 * (1 - quiet / base_rate):.0f}%)")

    # Now trip the first condition: load maui beyond 2 runnable tasks.
    maui.dmon.modules["cpu"].configure("period", 5.0)
    for _ in range(4):
        Linpack(cluster["maui"]).start()
    # ...and the second: disk traffic plus a memory squeeze.
    hog = cluster["maui"].memory.allocate(
        cluster["maui"].memory.free_bytes - MB(40), tag="hog")

    def disk_load():
        while True:
            yield cluster["maui"].disk.write(MB(8))
            yield env.timeout(0.2)

    env.process(disk_load())
    mark, before = env.now, records_published(maui.dmon)
    scenario.run_until(mark + 60.0)
    busy = (records_published(maui.dmon) - before) / (env.now - mark)
    print(f"filtered, loaded: {busy:.2f} records/s "
          f"(conditions tripped -> data flows again)")
    hog.free()

    stats = maui.dmon.filters.global_filter
    print(f"filter ran {stats.invocations} times, "
          f"emitted {stats.total_outputs} records, "
          f"{stats.errors} errors")


if __name__ == "__main__":
    main()
