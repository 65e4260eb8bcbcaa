"""``python -m repro.harness trace`` — end-to-end causal tracing demo.

Runs a seeded cluster with the full dproc deployment plus one
SmartPointer server/client pair under increasing CPU load, records
every monitoring event's causal trace, and reports:

* the critical-path latency breakdown (per-stage p50/p95/p99);
* one rendered span tree (module → d-mon → kecho → transport →
  delivery → update);
* the adaptation audit trail, linking each SmartPointer decision to
  the monitoring trace and threshold/filter evaluation that fed it.

``--export chrome`` additionally writes the Chrome trace-event JSON
(loadable in Perfetto / chrome://tracing).
"""

from __future__ import annotations

import argparse
import json
from typing import Optional

from repro.api import Scenario
from repro.dproc import DMonConfig
from repro.harness.appbench import CPU_PROFILE, CPU_RATE
from repro.harness.cli import add_run_options
from repro.smartpointer import (ClientCapabilities, DynamicAdaptation,
                                SmartPointerClient, SmartPointerServer)
from repro.tracing import (TraceCollector, adaptation_audit,
                           latency_breakdown, render_audit,
                           render_breakdown, render_tree,
                           to_chrome_trace)
from repro.workloads import Linpack

__all__ = ["run_trace_scenario", "pick_showcase_trace", "main"]


def run_trace_scenario(nodes: int = 20, seed: int = 1,
                       duration: float = 30.0,
                       sample_rate: float = 1.0) -> TraceCollector:
    """Run the traced scenario and return its collector.

    Deterministic: the same (nodes, seed, duration, sample_rate)
    always yields a bit-identical collector snapshot.
    """
    def smartpointer_pair(sc: Scenario) -> None:
        server_name, client_name = sc.nodes.names[:2]
        # Customize the client's publication policy from the server — a
        # traced control message, and the rule the audit trail will name.
        sc.dprocs[server_name].write(
            f"/proc/cluster/{client_name}/control",
            "period cpu 1\nthreshold cpu change 5")
        client_node = sc.nodes[client_name]
        SmartPointerClient(client_node).start()
        server = SmartPointerServer(sc.nodes[server_name],
                                    dproc=sc.dprocs[server_name])
        server.add_client(
            client_name, CPU_PROFILE, rate=CPU_RATE,
            policy=DynamicAdaptation(resources=("cpu",)),
            caps=ClientCapabilities(
                mflops=client_node.config.mflops_per_cpu, n_cpus=1,
                disk_rate=client_node.config.disk_rate))

        def loader():
            # Two load steps force at least one mid-run adaptation.
            yield sc.env.timeout(duration / 3)
            Linpack(client_node).start()
            yield sc.env.timeout(duration / 3)
            Linpack(client_node).start()

        sc.env.process(loader(), name="trace-loader")

    return Scenario(nodes=nodes, seed=seed,
                    dmon=DMonConfig(poll_interval=1.0)) \
        .with_tracing(seed=seed, sample_rate=sample_rate) \
        .with_setup(smartpointer_pair) \
        .run(duration).tracer


def pick_showcase_trace(collector: TraceCollector,
                        audit: Optional[list] = None) -> Optional[str]:
    """Trace id to render: the one behind the latest resolved audit
    trigger when available, else the biggest end-to-end tree."""
    if audit is None:
        audit = adaptation_audit(collector)
    for entry in reversed(audit):
        for trigger in entry["triggers"]:
            if trigger.get("trace_id") in collector:
                return trigger["trace_id"]
    best, best_size = None, 0
    for tree in collector.trees():
        if tree.complete and len(tree.spans) > best_size:
            best, best_size = tree.trace_id, len(tree.spans)
    return best


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness trace",
        description="Causal-tracing demo: span trees, critical-path "
                    "latency breakdown, adaptation audit trail.")
    add_run_options(
        parser, nodes=(20, "cluster size (default 20)"),
        seed=(1, "simulation seed (default 1)"),
        duration=(30.0, "simulated seconds (default 30)"))
    parser.add_argument("--sample", type=float, default=1.0,
                        help="head-sampling rate in [0, 1] (default 1)")
    parser.add_argument("--export", choices=("chrome", "text"),
                        default="text",
                        help="'chrome' also writes Perfetto-loadable "
                             "trace-event JSON")
    parser.add_argument("--out", default="TRACE_dproc.json",
                        help="output path for --export chrome")
    args = parser.parse_args(argv)
    if args.nodes < 2:
        parser.error("need at least 2 nodes (server + client)")

    collector = run_trace_scenario(
        nodes=args.nodes, seed=args.seed, duration=args.duration,
        sample_rate=args.sample)

    print(f"traced {len(collector)} traces, "
          f"{collector.spans_recorded} spans "
          f"(seed {collector.seed}, rate {collector.sample_rate:g})")
    print()
    print(render_breakdown(latency_breakdown(collector)))
    print()
    audit = adaptation_audit(collector)
    showcase = pick_showcase_trace(collector, audit)
    if showcase is not None:
        print(render_tree(collector.tree(showcase)))
        print()
    print(render_audit(audit, limit=8))
    if args.export == "chrome":
        document = to_chrome_trace(collector)
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1)
        print(f"\n[wrote {len(document['traceEvents'])} trace events "
              f"to {args.out}]")
    return 0
