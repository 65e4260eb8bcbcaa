"""``python -m repro.harness obs`` — the observability dashboard.

One render path for both backends: the command runs a scenario with
:meth:`repro.api.Scenario.with_observability` (simulated by default,
``--backend live`` for real asyncio nodes) and draws the plane it
produced — health verdict, degraded→recovered transitions with fault
attribution, and a per-metric table with sparklines of each series'
history.  ``--export openmetrics`` / ``--export json`` print the raw
exposition instead (the JSON form is the canonical byte-stable
export the determinism tests pin).

``--watch URL`` is the live companion: poll a running cluster's
scrape endpoint (``harness live --scrape PORT``), validate each
exposition with the strict mini-parser, and print a one-line rollup
per poll — no scenario of its own.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.harness.asciiplot import sparkline
from repro.harness.cli import add_run_options, run_scenario

__all__ = ["main", "render_dashboard"]

#: Metric-name substrings surfaced by the default (no ``--grep``)
#: dashboard, in display order.
DEFAULT_PANELS = ("dmon.", "kecho.", "net.", "stream.")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness obs",
        description="Time-series metrics plane: dashboard, health, "
                    "OpenMetrics/JSON export, live watch.")
    add_run_options(
        parser, nodes=(12, "cluster size (default 12)"),
        seed=(7, "simulation seed (default 7)"),
        duration=(30.0, "seconds to run (default 30)"),
        workers="--backend live: node-pool worker processes "
                "(default 1)",
        backend="simulated virtual time (default) or real asyncio "
                "localhost nodes",
        faults="run the chaos timeline so the health engine has "
               "faults to flag (sim only)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="sampling interval in seconds "
                             "(default 1.0)")
    parser.add_argument("--no-stream", action="store_true",
                        help="skip the durable stream tee (loses the "
                             "stream.* panels and fault attribution)")
    parser.add_argument("--grep", default=None, metavar="SUBSTR",
                        help="only show series whose key contains "
                             "SUBSTR (default: the stock panels)")
    parser.add_argument("--width", type=int, default=32,
                        help="sparkline width (default 32)")
    parser.add_argument("--export", choices=("openmetrics", "json"),
                        default=None,
                        help="print the raw exposition instead of "
                             "the dashboard")
    parser.add_argument("--watch", metavar="URL", default=None,
                        help="poll a live scrape endpoint instead of "
                             "running a scenario")
    parser.add_argument("--every", type=float, default=2.0,
                        help="--watch poll period in seconds "
                             "(default 2)")
    parser.add_argument("--count", type=int, default=5,
                        help="--watch polls before exiting "
                             "(default 5)")
    return parser


# -- rendering ---------------------------------------------------------------


def _fmt(value: Optional[float]) -> str:
    if value is None or value != value:
        return "-"
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}"


def render_dashboard(plane, broker=None, grep: Optional[str] = None,
                     width: int = 32) -> str:
    """The shared sim/live dashboard text for one plane."""
    from repro.obs import attribute_transitions
    lines: list[str] = []
    verdict = plane.verdict()
    state = "healthy" if verdict["healthy"] else "DEGRADED"
    lines.append(f"health: {state}   samples: {plane.samples_taken}"
                 f"   series: {len(plane.tsdb.keys())}"
                 f"   interval: {plane.sample_interval:g}s")
    lines.append("")
    lines.append(f"  {'rule':<22} {'status':<9} {'threshold':>9}  "
                 f"degraded")
    for row in verdict["rules"]:
        subjects = ",".join(row["degraded_subjects"]) or "-"
        lines.append(f"  {row['rule']:<22} {row['status']:<9} "
                     f"{row['threshold']:>9g}  {subjects}")
    transitions = plane.transitions
    if transitions:
        lines.append("")
        lines.append(f"transitions ({len(transitions)}):")
        for tr in transitions:
            lines.append(
                f"  {tr.time:>8.2f}s {tr.rule:<22} {tr.subject:<10} "
                f"{tr.from_status} -> {tr.to_status} "
                f"(value {_fmt(tr.value)}, slo {tr.threshold:g})")
        windows = attribute_transitions(transitions, broker)
        if windows:
            lines.append("")
            lines.append("degraded windows:")
            for w in windows:
                end = ("open" if w["end"] == float("inf")
                       else f"{w['end']:.2f}s")
                cause = (", ".join(w["faults"]) if w["attributed"]
                         else "unattributed")
                lines.append(
                    f"  {w['rule']} on {w['subject']}: "
                    f"{w['start']:.2f}s .. {end}  [{cause}]")
    lines.append("")
    lines.extend(_series_table(plane, grep, width))
    return "\n".join(lines)


def _series_table(plane, grep: Optional[str], width: int) -> list:
    """Per-metric rows: series count, last/min/max, sparkline."""
    groups: dict[str, list] = {}
    for series in plane.tsdb.all_series():
        key = series.name
        stat = dict(series.labels).get("stat")
        if stat:
            key += f"[{stat}]"
        if grep is not None:
            if grep not in key:
                continue
        elif not any(p in key for p in DEFAULT_PANELS):
            continue
        groups.setdefault(key, []).append(series)
    lines = [f"  {'metric':<42} {'n':>3} {'last':>10} "
             f"{'min..max':>17}  history"]
    for key in sorted(groups):
        members = groups[key]
        # Bucket the member series' points on time so the sparkline
        # shows the cross-node average trend.
        merged: dict[float, list] = {}
        last_values = []
        for series in members:
            for t, v in series.points():
                merged.setdefault(t, []).append(v)
            latest = series.latest
            if latest is not None:
                last_values.append(latest)
        trend = [sum(vs) / len(vs) for _, vs in sorted(merged.items())]
        if not last_values:
            continue
        lo, hi = min(last_values), max(last_values)
        lines.append(
            f"  {key:<42} {len(members):>3} "
            f"{_fmt(sum(last_values) / len(last_values)):>10} "
            f"{_fmt(lo):>7}..{_fmt(hi):<8} "
            f"{sparkline(trend, width=width)}")
    if len(lines) == 1:
        lines.append("  (no series matched)")
    return lines


# -- exports and watch -------------------------------------------------------


def _export(scenario, kind: str) -> int:
    if kind == "json":
        print(scenario.obs.export_json())
        return 0
    from repro.obs import render_openmetrics
    print(render_openmetrics(scenario.registries,
                             health=scenario.obs.verdict()), end="")
    return 0


def _watch(args) -> int:
    """Poll a scrape endpoint; exits non-zero on parse/HTTP failure."""
    import time
    import urllib.request

    from repro.obs import ObsError, parse_openmetrics
    url = args.watch
    if not url.startswith("http"):
        url = f"http://{url}"
    if not url.endswith("/metrics"):
        url = url.rstrip("/") + "/metrics"
    for i in range(args.count):
        if i:
            time.sleep(args.every)
        try:
            with urllib.request.urlopen(url, timeout=5.0) as resp:
                text = resp.read().decode("utf-8")
        except OSError as exc:
            print(f"poll {i + 1}: FETCH FAILED {exc}", file=sys.stderr)
            return 1
        try:
            families = parse_openmetrics(text)
        except ObsError as exc:
            print(f"poll {i + 1}: INVALID EXPOSITION {exc}",
                  file=sys.stderr)
            return 1
        samples = sum(len(f["samples"]) for f in families.values())
        healthy = [s.value for f in families.values()
                   for s in f["samples"] if s.name == "repro_healthy"]
        state = ("healthy" if healthy and healthy[0] == 1.0
                 else "DEGRADED" if healthy else "unknown")
        print(f"poll {i + 1}/{args.count}: {len(families)} families, "
              f"{samples} samples, health {state}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.watch is not None:
        return _watch(args)

    def instruments(scenario) -> None:
        scenario.with_observability(sample_interval=args.interval)
        if not args.no_stream:
            scenario.with_stream()

    from repro.obs import ObsError
    from repro.stream import StreamError
    try:
        scenario = run_scenario(args, instruments)
        plane = scenario.obs  # replays the stream into its series
    except (ObsError, StreamError) as exc:
        # An --interval too short for a rule, or a stream whose ring
        # dropped entries the replay needs.
        parser.error(str(exc))
    if args.export is not None:
        return _export(scenario, args.export)
    if args.faults:
        # The chaos timeline crashes the last host.
        print(f"chaos run: {args.nodes} nodes, seed {args.seed}, "
              f"victim {scenario.nodes.names[-1]}")
        print()
    print(render_dashboard(
        plane, None if args.no_stream else scenario.stream,
        grep=args.grep, width=args.width))
    return 0
