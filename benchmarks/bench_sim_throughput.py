"""Simulation-kernel throughput benchmark: events/sec vs. cluster size.

Runs a dproc-monitored cluster for a fixed span of *simulated* time at
several cluster sizes and reports how fast the kernel chews through its
event queue::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py \
        --sizes 8 --duration 10          # CI smoke
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py \
        --sizes 256 --profile            # where does the time go?

Results land in ``BENCH_sim_throughput.json`` (one record per size) so
successive PRs can track the perf trajectory.

The monitoring configuration is scaled with cluster size, mirroring how
a real deployment would be tuned: small clusters run the full
all-to-all exchange the paper benchmarks, while the 1000-node
configuration polls less often, publishes a single metric and routes it
to a small set of front-end subscriber nodes (dproc publishers push
only to nodes that registered interest, so an idle audience costs
nothing).  Each result records the exact configuration used.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.dproc import DMonConfig, MetricId
from repro.dproc.toolkit import Dproc
from repro.kecho import KechoBus
from repro.sim import (Environment, build_cluster, partition_nodes,
                       run_sharded)
from repro.sim.cluster import default_names
from repro.sim.shard import ShardedBus, ShardRouter, ShardWorld
from repro.telemetry import TelemetryRegistry, overhead_summary

DEFAULT_SIZES = (8, 64, 256, 1000)
DEFAULT_DURATION = 60.0
#: Above this size a single-worker run is skipped (quadratic peer
#: registration makes it build-bound); those sizes are sharded-only.
SINGLE_WORKER_MAX = 1000
#: ``--check`` fails when events/s drops more than this fraction below
#: the recorded baseline.
CHECK_TOLERANCE = 0.15
#: Ring bound for ``--stream`` runs: the durable log tee is passive
#: (no RNG, no events), so the only throughput cost is appending, and
#: the hard MAXLEN bound keeps memory flat at any duration.
STREAM_MAX_LEN = 65536
#: Report format version: 2 added ``schema_version`` and the
#: per-record ``health`` SLO section.
SCHEMA_VERSION = 2
OUTPUT = Path(__file__).resolve().parent.parent / \
    "BENCH_sim_throughput.json"


@dataclass(frozen=True)
class ScaleConfig:
    """Monitoring load profile for one cluster size."""

    poll_interval: float
    #: Nodes that subscribe to the monitoring channel (fan-in points).
    #: ``None`` means every node subscribes (full all-to-all exchange).
    n_watchers: int | None
    metrics: tuple[str, ...]
    modules: tuple[str, ...]
    #: ``--obs`` sampling scope: None samples every instrument; at
    #: large n the plane samples only the series the stock SLO rules
    #: and the throughput report actually read, which is what keeps
    #: obs overhead within its <=5% budget at n=1000.
    obs_prefixes: tuple[str, ...] | None = None
    #: ``--obs`` health cadence: evaluate rules every k-th sample.
    obs_health_every: int = 1


#: The SLO allowlist for large ``--obs`` runs: the three stock rules
#: (delivery latency p99, drop burn, monitor CPU burn), the publish
#: counters the report reads, and the full fault panel.
OBS_SLO_PREFIXES = ("dmon.collect_seconds", "dmon.events_published",
                    "dmon.polls", "net.",
                    "kecho.dproc.monitor.delivery_seconds")


FULL_METRICS = ("LOADAVG", "FREEMEM", "DISKUSAGE", "NET_BANDWIDTH")
FULL_MODULES = ("cpu", "mem", "disk", "net")


def scale_config(n: int) -> ScaleConfig:
    """Pick a monitoring profile that is realistic at size ``n``."""
    if n <= 64:
        return ScaleConfig(poll_interval=1.0, n_watchers=None,
                           metrics=FULL_METRICS, modules=FULL_MODULES)
    if n <= 256:
        return ScaleConfig(poll_interval=5.0, n_watchers=16,
                           metrics=("LOADAVG", "FREEMEM"),
                           modules=("cpu", "mem"))
    return ScaleConfig(poll_interval=15.0, n_watchers=8,
                       metrics=("LOADAVG",), modules=("cpu",),
                       obs_prefixes=OBS_SLO_PREFIXES,
                       obs_health_every=2)


def build_monitored_cluster(n: int, profile: ScaleConfig,
                            duration: float, stream: bool = False,
                            obs: bool = False):
    """An n-node cluster with dproc deployed per ``profile``.

    Returns ``(env, cluster, broker, plane)`` so callers can harvest
    per-node telemetry (and the stream tee / observability plane,
    when enabled) after the run.
    """
    env = Environment()
    cluster = build_cluster(env, nodes=n, seed=1)
    bus = KechoBus()
    broker = None
    plane = None
    if stream:
        from repro.stream import StreamBroker, attach_stream
        broker = StreamBroker(max_len=STREAM_MAX_LEN)
        attach_stream(broker, bus, cluster)
    if obs:
        from repro.obs import ObservabilityPlane
        plane = ObservabilityPlane(
            sample_interval=max(1.0, profile.poll_interval),
            name_prefixes=profile.obs_prefixes,
            health_every=profile.obs_health_every)
        plane.bind(cluster.names)
        first = cluster[cluster.names[0]]
        first.spawn(plane.sampler(cluster, env), name="obs-sampler")
    metric_subset = frozenset(MetricId[name] for name in profile.metrics)
    names = cluster.names
    watcher_set = set(names if profile.n_watchers is None
                      else names[:profile.n_watchers])
    dprocs = {}
    for name in names:
        cfg = DMonConfig(poll_interval=profile.poll_interval,
                         metric_subset=metric_subset,
                         subscribe_monitoring=name in watcher_set,
                         trace_max_samples=4096)
        dprocs[name] = Dproc(cluster[name], bus, cfg, profile.modules)
    # Only the watchers need the full /proc/cluster view.
    for name in watcher_set:
        for host in names:
            dprocs[name].add_cluster_node(host)
    for dproc in dprocs.values():
        dproc.start()
    if plane is not None:
        # The dprocs just registered their instruments: resolve the
        # sampling plans (and allocate the backing series) here in
        # setup, so the measured run only pays for the observes.
        plane.prepare(cluster)
    return env, cluster, broker, plane


def run_once(n: int, duration: float, stream: bool = False,
             obs: bool = False) -> dict:
    """Run one size; returns the result record for the JSON report."""
    profile = scale_config(n)
    t0 = time.perf_counter()
    env, cluster, broker, plane = build_monitored_cluster(
        n, profile, duration, stream, obs)
    setup_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    env.run(until=duration)
    wall = time.perf_counter() - t0

    events = env.events_processed
    record = {
        "n_nodes": n,
        "workers": 1,
        "sim_seconds": duration,
        "setup_seconds": round(setup_seconds, 3),
        "wall_seconds": round(wall, 3),
        "events_processed": events,
        "events_per_second": round(events / wall, 1) if wall else None,
        "sim_speedup": round(duration / wall, 2) if wall else None,
        "config": {
            "poll_interval": profile.poll_interval,
            "n_watchers": profile.n_watchers,
            "metrics": list(profile.metrics),
            "modules": list(profile.modules),
        },
        # Self-telemetry: the monitoring system's own account of what
        # it cost (CPU seconds, publishes, drops) during this run.
        "overhead": overhead_summary(
            {name: cluster[name].telemetry for name in cluster.names},
            sim_seconds=duration),
    }
    if broker is not None:
        # Key only present on --stream runs: the default record — and
        # the committed baseline — is unchanged with the tee off.
        record["stream"] = {
            "max_len": STREAM_MAX_LEN,
            "entries_retained": broker.total_entries(),
            "entries_trimmed": sum(s.trimmed for s in
                                   broker.streams.values()),
        }
    if plane is not None:
        # Same optional-key pattern for --obs runs.  The plane's
        # self-accounted sampling cost is the robust form of the
        # "obs overhead <= 5%" budget: wall-to-wall run pairing on a
        # noisy box swings more than the budget itself.
        record["obs"] = {
            "sample_interval": plane.sample_interval,
            "samples_taken": plane.samples_taken,
            "series": len(plane.tsdb.keys()),
            "healthy": plane.verdict()["healthy"],
            "sampler_cost_seconds": round(plane.sample_cost_seconds, 4),
            "sampler_cost_fraction": round(
                plane.sample_cost_seconds / wall, 4) if wall else None,
        }
    return record


def _build_bench_shard(spec):
    """Build one shard of the monitored cluster (runs in the worker)."""
    payload = spec.payload
    profile: ScaleConfig = payload["profile"]
    local = list(spec.local_names)
    env = Environment()
    cluster = build_cluster(env, nodes=len(local), seed=1, names=local)
    bus = ShardedBus()
    router = ShardRouter(env, spec.plan, spec.index)
    router.attach(cluster)
    metric_subset = frozenset(MetricId[name]
                              for name in profile.metrics)
    watcher_set = set(payload["watchers"])
    dprocs = {}
    for name in local:
        cfg = DMonConfig(poll_interval=profile.poll_interval,
                         metric_subset=metric_subset,
                         subscribe_monitoring=name in watcher_set,
                         trace_max_samples=4096)
        dprocs[name] = Dproc(cluster[name], bus, cfg, profile.modules)
    for name in local:
        if name in watcher_set:
            for host in payload["all_names"]:
                dprocs[name].add_cluster_node(host)
    for dproc in dprocs.values():
        dproc.start()

    def harvest(world):
        return {"counters": {node.name: node.telemetry.counters()
                             for node in world.cluster}}

    return ShardWorld(env=env, router=router, bus=bus,
                      cluster=cluster, dprocs=dprocs, harvest=harvest)


def run_sharded_once(n: int, duration: float, workers: int) -> dict:
    """Run one size on the sharded kernel; returns the JSON record.

    Two throughput figures are reported: ``events_per_second`` is
    wall-clock (what this machine delivered — on a box with fewer
    CPUs than workers the forked shards time-slice one core), and
    ``critical_path_events_per_second`` is total events over the
    longest per-shard CPU time plus coordination — the rate the same
    partition sustains once each worker has a core of its own.
    """
    profile = scale_config(n)
    names = default_names(n)
    watchers = tuple(names if profile.n_watchers is None
                     else names[:profile.n_watchers])
    plan = partition_nodes(names, workers)
    payload = {"profile": profile, "watchers": watchers,
               "all_names": tuple(names)}
    result = run_sharded(plan, duration, _build_bench_shard,
                         payloads=[payload] * plan.n_shards,
                         processes=True)
    events = result.events_processed
    wall = result.run_wall_seconds
    shard_cpu = [s.cpu_seconds for s in result.shards]
    critical = max(shard_cpu) + result.coordinator_cpu_seconds
    return {
        "n_nodes": n,
        "workers": plan.n_shards,
        "sim_seconds": duration,
        "setup_seconds": round(result.build_wall_seconds, 3),
        "wall_seconds": round(wall, 3),
        "events_processed": events,
        "events_per_second": round(events / wall, 1) if wall else None,
        "sim_speedup": round(duration / wall, 2) if wall else None,
        "critical_path_events_per_second":
            round(events / critical, 1) if critical else None,
        "windows": result.windows,
        "conduit_messages": result.conduit_messages,
        "lookahead": plan.lookahead,
        "shard_cpu_seconds": [round(c, 3) for c in shard_cpu],
        "coordinator_cpu_seconds":
            round(result.coordinator_cpu_seconds, 3),
        "host_cpus": os.cpu_count(),
        "forked_workers": result.processes,
        "config": {
            "poll_interval": profile.poll_interval,
            "n_watchers": profile.n_watchers,
            "metrics": list(profile.metrics),
            "modules": list(profile.modules),
        },
        "overhead": overhead_summary(
            {host: TelemetryRegistry.from_counters(host, counters)
             for shard in result.shards
             for host, counters in shard.extra["counters"].items()},
            sim_seconds=duration),
    }


def _annotate_speedups(results: list[dict]) -> None:
    """Fill speedup-vs-single-worker fields on sharded records.

    ``speedup_basis`` says which figure ``speedup`` quotes: wall
    clock when the host has a core per worker, otherwise the
    critical-path capacity (wall clock on an undersized host measures
    time-slicing, not the partition).
    """
    singles = {r["n_nodes"]: r for r in results
               if r.get("workers", 1) == 1}
    for record in results:
        workers = record.get("workers", 1)
        single = singles.get(record["n_nodes"])
        if workers <= 1 or single is None \
                or not single.get("events_per_second"):
            continue
        base = single["events_per_second"]
        wall_ratio = record["events_per_second"] / base \
            if record.get("events_per_second") else None
        cp_ratio = (record["critical_path_events_per_second"] / base
                    if record.get("critical_path_events_per_second")
                    else None)
        basis = "wall" if (os.cpu_count() or 1) >= workers \
            else "critical_path_cpu"
        record["speedup_vs_single_wall"] = \
            round(wall_ratio, 2) if wall_ratio else None
        record["speedup_vs_single_critical_path"] = \
            round(cp_ratio, 2) if cp_ratio else None
        record["speedup_basis"] = basis
        chosen = wall_ratio if basis == "wall" else cp_ratio
        record["speedup"] = round(chosen, 2) if chosen else None


def run_check(baseline_path: Path, sizes: list[int] | None,
              duration: float, tolerance: float) -> int:
    """Re-run the baseline's pinned sizes and fail on regression.

    Every single-worker baseline record (restricted to ``sizes`` when
    given) is re-run for ``duration`` simulated seconds; a recorded
    events/s that drops more than ``tolerance`` fails the check.
    Rates, not totals, are compared, so a short ``--duration`` keeps
    the gate fast.
    """
    try:
        baseline = json.loads(baseline_path.read_text())
    except FileNotFoundError:
        print(f"check: no baseline at {baseline_path}", file=sys.stderr)
        return 1
    records = [r for r in baseline.get("results", [])
               if r.get("workers", 1) == 1
               and r.get("events_per_second")
               and (sizes is None or r["n_nodes"] in sizes)]
    if not records:
        print("check: baseline has no matching single-worker records",
              file=sys.stderr)
        return 1
    failures = 0
    print(f"== sim throughput check: tolerance {tolerance:.0%}, "
          f"baseline {baseline_path.name} ==")
    for pinned in records:
        n = pinned["n_nodes"]
        fresh = run_once(n, duration)
        base = pinned["events_per_second"]
        got = fresh["events_per_second"]
        floor = base * (1.0 - tolerance)
        ok = got >= floor
        failures += 0 if ok else 1
        print(f"  n={n:<6d} baseline {base:>10.0f} ev/s  "
              f"now {got:>10.0f} ev/s  floor {floor:>10.0f}  "
              f"{'ok' if ok else 'REGRESSION'}")
    if failures:
        print(f"check FAILED: {failures} size(s) regressed more than "
              f"{tolerance:.0%}", file=sys.stderr)
        return 1
    print("check passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Simulation kernel throughput benchmark")
    parser.add_argument("--sizes", type=int, nargs="+", default=None,
                        help="cluster sizes to run (default: "
                             f"{list(DEFAULT_SIZES)}; with --check, "
                             "every baseline size)")
    parser.add_argument("--duration", type=float, default=DEFAULT_DURATION,
                        help="simulated seconds per run "
                             "(default: %(default)s)")
    parser.add_argument("--output", type=Path, default=OUTPUT,
                        help="JSON report path (default: %(default)s)")
    parser.add_argument("--profile", action="store_true",
                        help="run each size under cProfile and print the "
                             "top hotspots")
    parser.add_argument("--top", type=int, default=15,
                        help="rows per hotspot table with --profile")
    parser.add_argument("--workers", type=int, nargs="+", default=[1],
                        help="worker counts to run each size at; 1 is "
                             "the plain kernel, >1 the sharded kernel "
                             "(default: %(default)s)")
    parser.add_argument("--stream", action="store_true",
                        help="attach the durable event-stream tee "
                             f"(ring-bounded at {STREAM_MAX_LEN} "
                             "entries) to single-worker runs; the "
                             "acceptance bound is within 10%% of the "
                             "tee-off rate")
    parser.add_argument("--obs", action="store_true",
                        help="attach the observability plane (TSDB "
                             "sampler + health engine) to "
                             "single-worker runs; acceptance bound "
                             "is within 5%% of the plane-off rate")
    parser.add_argument("--check", action="store_true",
                        help="regression gate: re-run the baseline's "
                             "single-worker sizes and fail if events/s "
                             "drops more than the tolerance")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline JSON for --check "
                             "(default: the --output path)")
    parser.add_argument("--tolerance", type=float,
                        default=CHECK_TOLERANCE,
                        help="allowed fractional events/s drop for "
                             "--check (default: %(default)s)")
    args = parser.parse_args(argv)

    if args.check:
        return run_check(args.baseline or args.output, args.sizes,
                         args.duration, args.tolerance)

    sizes = args.sizes if args.sizes is not None \
        else list(DEFAULT_SIZES)
    results = []
    print(f"== sim throughput: {args.duration:g} simulated seconds ==")
    print(f"  {'nodes':>6} {'workers':>7} {'wall (s)':>9} "
          f"{'events':>10} {'events/s':>10} {'sim x':>7}")
    for n in sizes:
        for workers in args.workers:
            if workers == 1 and n > SINGLE_WORKER_MAX:
                print(f"  {n:6d} {1:7d}   skipped (sharded-only "
                      f"above n={SINGLE_WORKER_MAX})")
                continue
            if args.profile and workers == 1:
                from repro.harness.profile import profile_call
                record, report = profile_call(run_once, n,
                                              args.duration,
                                              top=args.top)
            elif workers == 1:
                record = run_once(n, args.duration,
                                  stream=args.stream, obs=args.obs)
                report = None
            else:
                record = run_sharded_once(n, args.duration, workers)
                report = None
            results.append(record)
            print(f"  {n:6d} {record.get('workers', 1):7d} "
                  f"{record['wall_seconds']:9.2f} "
                  f"{record['events_processed']:10d} "
                  f"{record['events_per_second']:10.0f} "
                  f"{record['sim_speedup']:7.1f}")
            if report is not None:
                print(report.render())
    _annotate_speedups(results)
    for record in results:
        if record.get("speedup") is not None:
            print(f"  n={record['n_nodes']} x{record['workers']}: "
                  f"{record['speedup']}x vs single worker "
                  f"({record['speedup_basis']}; wall "
                  f"{record['speedup_vs_single_wall']}x, "
                  f"critical-path "
                  f"{record['speedup_vs_single_critical_path']}x)")

    from repro.harness.benchreport import BenchReport
    report = BenchReport("sim_throughput",
                         schema_version=SCHEMA_VERSION,
                         sim_seconds=args.duration,
                         host_cpus=os.cpu_count())
    report.extend(results)
    report.write(args.output)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
