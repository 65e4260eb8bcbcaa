"""Ablation — parameters vs an equivalent dynamic filter.

The paper (§3): "although dynamic filters can provide the functionality
of parameters, it is typically 'cheaper' to use parameters to specify
simple rules because parameters require less book-keeping, and there is
no dynamic code generation overhead."

This bench deploys the 15 % differential rule both ways — as a
ChangeThreshold parameter and as a behaviourally equivalent E-code
filter — and compares (a) what gets published and (b) the kernel CPU
consumed by the publishing node.  Both nodes run the ambient activity
of the §4.1 microbenchmarks, so the metrics move and each path has
records to publish.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.dproc import DMonConfig, MetricId
from repro.dproc.params import ChangeThreshold
from repro.harness.microbench import AMBIENT_INTENSITY
from repro.workloads import AmbientActivity

METRICS = frozenset({MetricId.LOADAVG, MetricId.FREEMEM,
                     MetricId.DISKUSAGE, MetricId.NET_BANDWIDTH})

DIFFERENTIAL_FILTER = """
{
    int i = 0;
    if (input[LOADAVG].value > input[LOADAVG].last_value_sent * 1.15 ||
        input[LOADAVG].value < input[LOADAVG].last_value_sent * 0.85) {
        output[i] = input[LOADAVG];
        i = i + 1;
    }
    if (input[FREEMEM].value > input[FREEMEM].last_value_sent * 1.15 ||
        input[FREEMEM].value < input[FREEMEM].last_value_sent * 0.85) {
        output[i] = input[FREEMEM];
        i = i + 1;
    }
    if (input[DISKUSAGE].value >
            input[DISKUSAGE].last_value_sent * 1.15 ||
        input[DISKUSAGE].value <
            input[DISKUSAGE].last_value_sent * 0.85) {
        output[i] = input[DISKUSAGE];
        i = i + 1;
    }
    if (input[NET_BANDWIDTH].value >
            input[NET_BANDWIDTH].last_value_sent * 1.15 ||
        input[NET_BANDWIDTH].value <
            input[NET_BANDWIDTH].last_value_sent * 0.85) {
        output[i] = input[NET_BANDWIDTH];
        i = i + 1;
    }
}
"""

#: The table this bench printed when the ambient activity went in:
#: counts exact, CPU seconds to 1e-9 relative.  A change that moves a
#: simulated value moves a row; restate it on purpose.
EXPECTED = {  # configuration: (records, events, publisher CPU seconds)
    "parameters": (12, 9, 0.05252169055478795),
    "filter": (10, 9, 0.055018227354993385),
}


def start_ambient(sc: Scenario) -> None:
    for node in sc.nodes:
        AmbientActivity(node, intensity=AMBIENT_INTENSITY).start()


def run_configuration(use_filter: bool, duration: float = 100.0):
    """Run a 2-node cluster with the differential rule one way."""
    sc = Scenario(nodes=2, seed=5, dmon=DMonConfig(metric_subset=METRICS),
                  modules=("cpu", "mem", "disk", "net"))
    sc.with_cluster_setup(start_ambient).build()
    publisher = sc.dprocs["alan"].dmon
    if use_filter:
        publisher.filters.deploy(DIFFERENTIAL_FILTER, scope="*")
    else:
        for policy in publisher.policies.values():
            policy.add_threshold(ChangeThreshold(15.0))
    sc.run_until(duration)
    node = sc.nodes["alan"]
    node.cpu.settle()
    return {
        "records": node.telemetry.value("dmon.records_published"),
        "events": node.telemetry.value("dmon.events_published"),
        "cpu_seconds": node.cpu.busy_cpu_seconds,
    }


def test_params_cheaper_than_equivalent_filter(benchmark):
    results = benchmark.pedantic(
        lambda: (run_configuration(False), run_configuration(True)),
        rounds=1, iterations=1)
    params, filt = results
    print()
    print("== ablation: parameters vs equivalent dynamic filter ==")
    print(f"  {'':14s} {'records':>8s} {'events':>7s} "
          f"{'cpu (ms)':>9s}")
    for label, r in (("parameters", params), ("filter", filt)):
        print(f"  {label:14s} {r['records']:8.0f} {r['events']:7.0f} "
              f"{r['cpu_seconds'] * 1e3:9.2f}")
        records, events, cpu_seconds = EXPECTED[label]
        assert (r["records"], r["events"]) == (records, events)
        assert r["cpu_seconds"] == pytest.approx(cpu_seconds, rel=1e-9)

    # Behavioural equivalence: both publish the same events, and the
    # same records after the first poll, where the filter's ±15 % band
    # around a never-sent 0 holds back the metrics that start at 0.
    assert filt["events"] == params["events"]
    assert filt["records"] == pytest.approx(params["records"], abs=2)

    # The parameter path costs strictly less CPU: no compilation and a
    # cheaper per-poll check.
    assert params["cpu_seconds"] < filt["cpu_seconds"]

    # The gap is at least the one-off compile cost.
    assert filt["cpu_seconds"] - params["cpu_seconds"] > 1e-3
