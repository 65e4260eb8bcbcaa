"""``python -m repro.harness experiment``: the declarative policy sweep.

Runs the paper's Figs. 12-14 experiment list — baseline, static
allocation, dynamic threshold adaptation, multi-resource rules — via
:func:`repro.experiment.run_experiments` on the simulator or the live
socket backend, and writes the results as one
JSON document: ``config``, then one ``results`` record per experiment
(``variant`` is its identity) carrying the SLO ``health`` section.

With ``--ab`` it additionally runs a live batching A/B at a short poll
interval: the same cluster with and without frame coalescing, at equal
delivered metrics, recording the frames-on-wire reduction.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.api import ScenarioError
from repro.experiment import run_experiments, standard_experiments
from repro.harness.cli import add_run_options
from repro.obs import health_section_from_overhead

#: Default A/B poll interval: short enough that several monitor frames
#: head to the same destination within one batch window.
AB_POLL = 0.25


def _run_live(nodes: int, duration: float, seed: int, poll: float,
              batch) -> dict:
    """One A/B arm: a live cluster, identical but for batching."""
    from repro.api import Scenario
    from repro.dproc import DMonConfig

    scenario = Scenario(nodes=nodes, seed=seed, backend="live",
                        dmon=DMonConfig(poll_interval=poll))
    scenario.with_node_pool(1, batch=batch).run(duration)
    wire = scenario.runtime.wire_stats()
    receives = sum(
        registry.value("kecho.dproc.monitor.receives")
        for registry in scenario.registries.values())
    return {
        "frames": wire.get("net.tx_frames", 0.0),
        "wire_frames": wire.get("net.tx_wire_frames", 0.0),
        "batches": wire.get("net.tx_batches", 0.0),
        "wire_bytes": wire.get("net.tx_wire_bytes", 0.0),
        "monitor_receives": receives,
    }


def batching_ab(nodes: int, duration: float, seed: int,
                poll: float = AB_POLL) -> dict:
    """Frames-on-wire with coalescing off vs on, same cluster."""
    from repro.live.transport import BatchConfig

    # The batch window must cover at least two poll periods, or there
    # is never a second frame to coalesce with.
    batch = BatchConfig(max_delay=max(2.0 * poll, 0.1))
    unbatched = _run_live(nodes, duration, seed, poll, None)
    batched = _run_live(nodes, duration, seed, poll, batch)
    reduction = 0.0
    if unbatched["wire_frames"]:
        reduction = 1.0 - (batched["wire_frames"]
                           / unbatched["wire_frames"])
    receives_ratio = 1.0
    if unbatched["monitor_receives"]:
        receives_ratio = (batched["monitor_receives"]
                          / unbatched["monitor_receives"])
    return {
        "nodes": nodes,
        "poll_interval": poll,
        "batch_max_delay": batch.max_delay,
        "duration": duration,
        "unbatched": unbatched,
        "batched": batched,
        "wire_frame_reduction": round(reduction, 4),
        "delivered_ratio": round(receives_ratio, 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness experiment",
        description="Run the declarative Experiment/Policy sweep "
                    "(Figs. 12-14) and write experiment.json.")
    add_run_options(
        parser, nodes=(8, "cluster size (default 8)"),
        seed=(7, "master seed (default 7)"),
        duration=(10.0, "seconds per experiment — simulated on sim, "
                        "wall-clock on live (default 10)"),
        workers="--backend live: node-pool worker processes "
                "(default 1)",
        backend="where to run the sweep (default sim)")
    parser.add_argument("--policies", nargs="*", default=None,
                        metavar="NAME",
                        help="subset of the standard sweep "
                             "(baseline static dynamic multi)")
    parser.add_argument("--stretch", type=float, default=4.0,
                        help="relief period stretch factor (default 4)")
    parser.add_argument("--event-budget", type=float, default=0.5,
                        help="events/s budget that triggers dynamic "
                             "adaptation (default 0.5)")
    parser.add_argument("--ab", action="store_true",
                        help="also run the live batching A/B (frames "
                             "on the wire, coalescing off vs on)")
    parser.add_argument("--ab-nodes", type=int, default=8,
                        help="A/B cluster size (default 8)")
    parser.add_argument("--ab-duration", type=float, default=6.0,
                        help="A/B wall seconds per arm (default 6)")
    parser.add_argument("--ab-poll", type=float, default=AB_POLL,
                        help=f"A/B poll interval (default {AB_POLL})")
    parser.add_argument("--output", type=Path,
                        default=Path("experiment.json"),
                        help="report path "
                             "(default ./experiment.json)")
    parser.add_argument("--json", action="store_true",
                        help="print the full payload as JSON")
    args = parser.parse_args(argv)

    experiments = standard_experiments(
        stretch_period=args.stretch, event_budget=args.event_budget)
    if args.policies:
        known = {exp.name for exp in experiments}
        for name in args.policies:
            if name not in known:
                parser.error(f"unknown policy {name!r} (choose from "
                             f"{', '.join(sorted(known))})")
        experiments = [exp for exp in experiments
                       if exp.name in set(args.policies)]

    print(f"== experiment sweep: {len(experiments)} policies, "
          f"{args.nodes} nodes, {args.duration:g}s each on "
          f"{args.backend}"
          + (f" x{args.workers}" if args.workers > 1 else "") + " ==")
    try:
        reports = run_experiments(experiments, nodes=args.nodes,
                                  seed=args.seed, duration=args.duration,
                                  backend=args.backend,
                                  workers=args.workers)
    except ScenarioError as exc:
        raise SystemExit(str(exc)) from None
    print(f"  {'experiment':<10} {'policy':<16} {'decide':>6} "
          f"{'adapt':>5} {'fresh':>5} {'events':>8} {'recv':>8} "
          f"{'mon cpu (s)':>11}")
    for rep in reports:
        print(f"  {rep.experiment:<10} {rep.policy:<16} "
              f"{rep.decisions:>6} {rep.adaptations:>5} "
              f"{rep.hosts_reporting:>5} "
              f"{rep.events_published:>8.0f} "
              f"{rep.monitor_receives:>8.0f} "
              f"{rep.monitor_cpu_seconds:>11.4f}")

    records = [rep.to_record() for rep in reports]
    for record in records:
        # A record carries the two overhead fields the SLO checks read.
        record["health"] = health_section_from_overhead(record)
    payload = {
        "benchmark": "experiment",
        "schema_version": 2,
        "config": {"backend": args.backend, "n_nodes": args.nodes,
                   "duration": args.duration, "seed": args.seed,
                   "workers": args.workers,
                   "stretch_period": args.stretch,
                   "event_budget": args.event_budget},
        "results": records,
    }

    failed = False
    if args.ab:
        print(f"\n== batching A/B: {args.ab_nodes} live nodes, poll "
              f"{args.ab_poll:g}s, {args.ab_duration:g}s per arm ==")
        ab = batching_ab(args.ab_nodes, args.ab_duration, args.seed,
                         poll=args.ab_poll)
        payload["batching_ab"] = ab
        print(f"  unbatched: {ab['unbatched']['wire_frames']:.0f} "
              f"wire writes for {ab['unbatched']['frames']:.0f} "
              f"frames")
        print(f"  batched:   {ab['batched']['wire_frames']:.0f} "
              f"wire writes for {ab['batched']['frames']:.0f} frames "
              f"({ab['batched']['batches']:.0f} BATCH super-frames)")
        print(f"  frames-on-wire reduction: "
              f"{ab['wire_frame_reduction']:.1%} at "
              f"{ab['delivered_ratio']:.1%} delivered metrics")
        if ab["wire_frame_reduction"] <= 0:
            print("FAIL: batching did not reduce frames on the wire",
                  file=sys.stderr)
            failed = True

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    if args.json:
        print(json.dumps(payload, indent=2))
    return 1 if failed else 0
