"""``python -m repro.harness live``: run the stack over real sockets.

Brings up N localhost nodes (asyncio tasks with real TCP server
sockets), deploys dproc with the host-backed monitoring modules (they
read the real ``/proc``), ships an E-code filter from the first node
to the second through the control channel, lets wall-clock time pass,
and prints the delivered metrics plus the same telemetry/overhead
report the simulator harness produces.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro.api import Scenario
from repro.dproc import DMonConfig, MetricId
from repro.errors import DprocError
from repro.harness.cli import add_run_options, build_scenario

#: Shipped from node[0] to node[1]: pass the load average through at
#: half value — visibly an E-code filter in the delivered numbers.
HALVING_FILTER = """{
    output[0] = input[LOADAVG];
    output[0].value = input[LOADAVG].value * 0.5;
}"""

#: The end-to-end delivery check of the acceptance criteria.
DELIVERED_METRICS = (("cpu", MetricId.LOADAVG),
                     ("mem", MetricId.FREEMEM),
                     ("disk", MetricId.DISKUSAGE),
                     ("net", MetricId.NET_USED))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness live",
        description="Run dproc/KECho live over asyncio localhost "
                    "sockets.")
    add_run_options(
        parser, nodes=(4, "number of localhost nodes (default 4)"),
        seed=(0, "node naming/port seed (default 0)"),
        duration=(10.0, "wall-clock seconds to run (default 10)"),
        workers="node-pool worker processes; this process keeps the "
                "first host slice (default 1 = single process)")
    parser.add_argument("--poll", type=float, default=1.0,
                        help="d-mon poll interval in seconds "
                             "(default 1.0)")
    parser.add_argument("--json", action="store_true",
                        help="print the report as one JSON document "
                             "and nothing else on stdout")
    parser.add_argument("--scrape", type=int, default=None,
                        metavar="PORT",
                        help="serve OpenMetrics /metrics and JSON "
                             "/healthz on this port while running "
                             "(0 picks a free port)")
    parser.add_argument("--watchers", type=int, default=None,
                        metavar="K",
                        help="only the first K hosts subscribe to "
                             "the monitoring channel (default: all "
                             "hosts; essential at --nodes 100+)")
    parser.add_argument("--batch", dest="batch", action="store_true",
                        default=False,
                        help="coalesce outgoing frames into one "
                             "socket write")
    parser.add_argument("--no-batch", dest="batch",
                        action="store_false",
                        help="disable frame batching (default)")
    parser.add_argument("--batch-bytes", type=int, default=None,
                        metavar="N",
                        help="batch size watermark in bytes "
                             "(implies --batch)")
    parser.add_argument("--batch-delay", type=float, default=None,
                        metavar="SEC",
                        help="batch time watermark in seconds "
                             "(implies --batch)")
    args = parser.parse_args(argv)
    if args.nodes < 2:
        parser.error("--nodes must be >= 2 (the filter ships from "
                     "node[0] to node[1])")

    try:
        dmon = DMonConfig(poll_interval=args.poll)
    except DprocError as exc:
        parser.error(f"--poll: {exc}")

    want_batch = (args.batch or args.batch_bytes is not None
                  or args.batch_delay is not None)
    batch = None
    if want_batch:
        from repro.live.transport import BatchConfig
        defaults = BatchConfig()
        batch = BatchConfig(
            max_bytes=args.batch_bytes
            if args.batch_bytes is not None else defaults.max_bytes,
            max_delay=args.batch_delay
            if args.batch_delay is not None else defaults.max_delay)
    scenario = build_scenario(
        args, backend="live", dmon=dmon,
        pool={"watchers": args.watchers, "batch": batch})
    if args.scrape is not None:
        scenario.with_observability(
            sample_interval=min(1.0, args.poll),
            scrape_port=args.scrape)

        def announce(sc: Scenario) -> None:
            # Runs before the server is up, but the port is only known
            # after bind — print it from a short timer instead.
            import asyncio

            async def later() -> None:
                await asyncio.sleep(0.1)
                print(f"scrape endpoint: {sc.scrape.url}/metrics",
                      flush=True)
            asyncio.get_event_loop().create_task(later())

        scenario.with_setup(announce)

    def deploy_filter(sc: Scenario) -> None:
        first, second = sc.nodes.names[:2]
        sc.dprocs[first].write(
            f"/proc/cluster/{second}/control",
            f"filter cpu id=half {HALVING_FILTER}")

    scenario.with_setup(deploy_filter)
    if not args.json:
        batching = "on" if want_batch else "off"
        print(f"live: {args.nodes} nodes over localhost TCP "
              f"({args.workers} process(es), batching {batching}), "
              f"{args.duration:.0f}s wall, poll every {args.poll:g}s ...",
              flush=True)
    scenario.run(args.duration)

    first, second = scenario.nodes.names[:2]
    observer = scenario.dprocs[first]
    delivered = {}
    for label, metric in DELIVERED_METRICS:
        rows = {}
        # All mounted hosts, not just this process's slice — with a
        # node pool this proves cross-process delivery end to end.
        for host in observer.hosts():
            if host == first:
                continue
            value = observer.metric(host, metric)
            rows[host] = None if math.isnan(value) else value
        delivered[label] = rows
    deployed = scenario.dprocs[second].dmon.filters.deployed()
    stats = [
        {"id": f.filter_id, "scope": str(f.scope),
         "invocations": f.invocations, "outputs": f.total_outputs,
         "errors": f.errors}
        for f in deployed]
    overhead = scenario.overhead()
    wire = scenario.runtime.wire_stats()
    missing = list(scenario.runtime.missing_hosts)
    health = None
    if args.scrape is not None:
        health = scenario.obs.verdict()
        health["scrape_hits"] = dict(scenario.scrape.hits)

    if args.json:
        doc = {"delivered": delivered, "filters": stats,
               "overhead": overhead, "wire": wire, "missing": missing}
        if health is not None:
            doc["health"] = health
        print(json.dumps(doc, indent=2))
        return _verdict(delivered, missing)

    print(f"\ndelivered metrics as seen from {first}:")
    for label, rows in delivered.items():
        shown = list(rows.items())
        extra = ""
        if len(shown) > 8:
            extra = f"  ... ({len(shown) - 8} more)"
            shown = shown[:8]
        cells = "  ".join(
            f"{host}={'-' if v is None else f'{v:.4g}'}"
            for host, v in shown)
        print(f"  {label:>4}: {cells}{extra}")
    print(f"\nfilter on {second}: {stats}")
    frames = wire.get("net.tx_frames", 0.0)
    wire_frames = wire.get("net.tx_wire_frames", 0.0)
    if frames:
        saved = 100.0 * (1.0 - wire_frames / frames)
        wire_bytes = wire.get("net.tx_wire_bytes", 0.0)
        print(f"\nwire: {frames:.0f} frames, {wire_bytes:.0f} bytes "
              f"({wire_bytes / frames:.1f} B/frame) in "
              f"{wire_frames:.0f} wire writes "
              f"({saved:.1f}% coalesced; "
              f"{wire.get('net.tx_batches', 0.0):.0f} batches, "
              f"{wire.get('net.backpressure_pauses', 0.0):.0f} "
              f"backpressure pauses, "
              f"{wire.get('net.backpressure_drops', 0.0):.0f} drops)")
    print(f"\noverhead report ({args.duration:.0f}s wall, "
          f"{overhead['n_nodes']} nodes):")
    print(json.dumps(overhead, indent=2))
    # Hosts whose pool worker died before its harvest: in no number
    # above.
    print("missing:", *missing)
    if health is not None:
        verdict = "healthy" if health["healthy"] else "DEGRADED"
        print(f"\nhealth: {verdict} "
              f"({health['transitions']} transitions; scrape hits "
              f"{health['scrape_hits']})")
    status = _verdict(delivered, missing)
    if status == 0:
        print("\nOK: CPU/MEM/DISK/NET events delivered end-to-end "
              "(cpu stream filtered by E-code)")
    return status


def _verdict(delivered: dict, missing: list) -> int:
    """0, or 1 after a ``FAIL:`` line on stderr."""
    if missing:
        print(f"FAIL: no harvest from the pool worker(s) of "
              f"{', '.join(missing)}", file=sys.stderr)
        return 1
    silent = [label for label, rows in delivered.items()
              if any(v is None for v in rows.values())]
    if silent:
        print(f"FAIL: no {', '.join(silent)} events delivered",
              file=sys.stderr)
        return 1
    return 0
