"""``python -m repro.harness stream`` — the durable event stream CLI.

Three subcommands over the append-only channel log
(:mod:`repro.stream`):

* ``tail`` — run a scenario (or load a dumped stream) and print the
  newest entries per channel, Redis ``XRANGE`` style;
* ``stats`` — recompute per-channel delivery/latency summaries purely
  by replaying the log, and (for in-process runs) verify them against
  the live telemetry registry;
* ``reconcile`` — replay the stream against d-mon ground truth and
  report missing / duplicated / unexpected / stale entries; exits
  non-zero when the log and the cluster disagree.

``stats`` and ``reconcile`` replay the whole log, so a stream whose
ring has dropped entries is a usage error (exit 2); ``tail`` prints
what the ring holds.

``--faults`` runs the chaos timeline (loss + partition + crash) so
every reported drop must be attributed to the fault plane; ``--dump``
persists the stream as JSONL segments and ``--load`` replays a prior
dump without running anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.api import Scenario
from repro.harness.cli import add_run_options, run_scenario

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness stream",
        description="Durable event stream: tail, replay-stats, "
                    "reconcile.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        add_run_options(
            p, nodes=(12, "cluster size (default 12)"),
            seed=(7, "simulation seed (default 7)"),
            duration=(20.0, "simulated seconds (default 20)"),
            faults="run the chaos timeline (loss, partition, "
                   "crash+reboot) instead of a clean run")
        p.add_argument("--load", metavar="DIR", default=None,
                       help="replay a dumped stream from DIR instead "
                            "of running a scenario")
        p.add_argument("--dump", metavar="DIR", default=None,
                       help="also persist the stream as JSONL "
                            "segments into DIR")
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON output")

    p_tail = sub.add_parser("tail", help="print the newest entries")
    common(p_tail)
    p_tail.add_argument("--count", type=int, default=10,
                        help="entries per channel (default 10)")

    p_stats = sub.add_parser(
        "stats", help="recompute summaries by replaying the log")
    common(p_stats)

    p_rec = sub.add_parser(
        "reconcile",
        help="replay the stream against d-mon ground truth")
    common(p_rec)
    return parser


def _entry_line(entry) -> str:
    arrow = {"submit": "»", "deliver": "←", "drop": "✗"}.get(
        entry.kind, "?")
    route = entry.source
    if entry.dest:
        route += f" → {entry.dest}"
    if entry.kind == "deliver":
        # Light entries: records live on the paired submit.
        detail = f"latency {entry.latency * 1e3:.1f}ms"
    else:
        detail = entry.summary or f"{len(entry.records)} records"
    if entry.kind == "submit":
        detail += (f" to {len(entry.targets)} targets"
                   + (" + local" if entry.local else ""))
    if entry.fault:
        detail += f" [{entry.fault}]"
    return (f"  {entry.seq:>6} {entry.time:>9.3f}s {arrow} "
            f"{entry.kind:<7} {route:<24} {detail}")


def _cmd_tail(args, broker) -> int:
    if args.json:
        doc = {ch: [e.to_record() for e in
                    broker.stream(ch).tail(args.count)]
               for ch in broker.channels()}
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 0
    for channel in broker.channels():
        stream = broker.stream(channel)
        print(f"{channel}  ({len(stream)} entries, "
              f"seq {stream.first_seq}..{stream.last_seq}, "
              f"{stream.trimmed} trimmed)")
        for entry in stream.tail(args.count):
            print(_entry_line(entry))
        print()
    return 0


def _cmd_stats(args, broker, scenario) -> int:
    from repro.stream import replay_stats, verify_stats
    stats = replay_stats(broker)
    errors: Optional[list] = None
    if scenario is not None:
        errors = verify_stats(broker, scenario.runtime.nodes)
    if args.json:
        doc = dict(stats)
        if errors is not None:
            doc["verification_errors"] = errors
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 1 if errors else 0
    for channel, summary in stats["channels"].items():
        print(f"{channel}:")
        for key, value in summary.items():
            if isinstance(value, dict):
                inner = ", ".join(f"{k}={v:.6g}"
                                  for k, v in value.items())
                print(f"  {key:<18} {inner}")
            else:
                print(f"  {key:<18} {value:g}")
    print(f"total entries      {stats['total_entries']}")
    if errors is not None:
        if errors:
            print(f"\nreplay DISAGREES with live telemetry "
                  f"({len(errors)} errors):")
            for err in errors[:20]:
                print(f"  - {err}")
            return 1
        print("\nreplayed summaries match the live telemetry "
              "registry exactly")
    return 0


def _cmd_reconcile(args, broker, scenario) -> int:
    from repro.stream import reconcile
    dprocs = stale_after = None
    if scenario is not None:
        dprocs = scenario.dprocs
        stale_after = next(iter(dprocs.values())).dmon.config.stale_after
    result = reconcile(broker, dprocs, until=args.duration,
                       stale_after=stale_after)
    if args.json:
        print(json.dumps(result.to_json(), indent=1, sort_keys=True))
    else:
        print(result.render())
    return 0 if result.ok else 1


def main(argv: Optional[list] = None) -> int:
    from repro.stream import StreamBroker, StreamError
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.load is not None:
            # Replayed from disk: no cluster to check the log against.
            broker, scenario = StreamBroker.load(args.load), None
        else:
            scenario = run_scenario(args, Scenario.with_stream)
            broker = scenario.stream
        if args.dump is not None:
            broker.dump(args.dump)
            print(f"[dumped {broker.total_entries()} entries to "
                  f"{args.dump}]", file=sys.stderr)
        if args.command == "tail":
            return _cmd_tail(args, broker)
        if args.command == "stats":
            return _cmd_stats(args, broker, scenario)
        return _cmd_reconcile(args, broker, scenario)
    except StreamError as exc:  # a replay past a ring, a bad dump
        parser.error(str(exc))
