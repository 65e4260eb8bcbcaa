#!/usr/bin/env python
"""Tour of the metrics plane: TSDB queries, SLOs, fault attribution.

Runs a monitored cluster through an injected loss window with the
observability plane attached, then walks what the plane captured:
windowed TSDB queries over sampled telemetry, the health engine's
hysteretic verdicts and their transitions, and the attribution of
each degraded window to the recorded fault that caused it.  Finishes with the OpenMetrics exposition the live
``/metrics`` endpoint would serve for the same cluster.

Run:  PYTHONPATH=src python examples/obs_dashboard.py
"""

from __future__ import annotations

from repro.api import Scenario
from repro.harness.obscli import render_dashboard
from repro.obs import (HealthRule, attribute_transitions,
                       render_openmetrics)

DURATION = 40.0


def inject(sc: Scenario) -> None:
    # A loss window mid-run: enough drops to trip drop-burn, healed
    # early enough for the hysteresis to recover before the end.
    sc.faults.schedule_loss(10.0, 0.5, until=20.0)


def main() -> None:
    # 1. A monitored cluster with the stream tee and the obs plane.
    #    Add one custom SLO next to the stock rules: publishers must
    #    sustain at least half an event per second.
    from repro.obs import default_rules
    rules = list(default_rules()) + [
        HealthRule(name="publish-rate",
                   metric="dmon.events_published", agg="rate",
                   window=10.0, op=">=", threshold=0.5,
                   for_bad=3, for_ok=2),
    ]
    scenario = (Scenario(nodes=8, seed=11)
                .with_stream()
                .with_faults(inject)
                .with_observability(sample_interval=1.0,
                                    rules=rules))
    scenario.run(DURATION)
    plane = scenario.obs

    # 2. Windowed queries over the sampled series.
    name = scenario.nodes.names[0]
    labels = (("node", name),)
    print("== TSDB queries ==")
    print(f"  series stored: {len(plane.tsdb.keys())}")
    print(f"  {name} publish rate (last 10s): "
          f"{plane.tsdb.rate('dmon.events_published', labels, window=10.0, now=DURATION):.2f}/s")
    print(f"  cluster drop-rate p99 across run: "
          f"{plane.tsdb.quantile_over_time(0.99, 'net.drops_fault', labels, window=DURATION, now=DURATION):.1f}")

    # 3. The health verdict and its audit trail.
    verdict = plane.verdict()
    print("\n== health ==")
    print(f"  healthy: {verdict['healthy']}  "
          f"transitions: {len(plane.transitions)}")
    for tr in plane.transitions[:5]:
        print(f"  t={tr.time:g} {tr.rule} on {tr.subject}: "
              f"{tr.from_status}->{tr.to_status} (value {tr.value:.3g})")

    # 4. Fault attribution: each degraded window names the injected
    #    fault whose recorded drops fall inside it.
    print("\n== degraded windows ==")
    for window in attribute_transitions(plane.transitions,
                                        scenario.stream):
        cause = ", ".join(window["faults"]) or "unattributed"
        end = window["end"]
        print(f"  {window['rule']} on {window['subject']}: "
              f"{window['start']:g}s..{end:g}s  [{cause}]")

    # 5. The same dashboard `python -m repro.harness obs` draws.
    print("\n== dashboard ==")
    print(render_dashboard(plane, scenario.stream,
                           grep="net.drops_fault"))

    # 6. And the exposition a live /metrics scrape would serve.
    text = render_openmetrics(
        {node.name: node.telemetry for node in scenario.nodes},
        health=verdict)
    print("== openmetrics (first 12 lines) ==")
    print("\n".join(text.splitlines()[:12]))


if __name__ == "__main__":
    main()
