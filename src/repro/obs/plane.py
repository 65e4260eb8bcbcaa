"""The observability plane: sampler, stream ingest, health, export.

One :class:`ObservabilityPlane` per run.  It is fed two ways:

* **Periodic registry snapshots** — :meth:`sampler` is a process
  generator (``yield clock.timeout(interval)``) that both backends
  drive natively: the simulator schedules it in virtual time (so
  sampling is deterministic and the export byte-stable), the live
  backend drives it as an asyncio task on the wall clock.  Each tick
  walks every node's :class:`~repro.telemetry.TelemetryRegistry` and
  appends one sample per instrument: counters and gauges by value,
  histograms as ``stat``-labelled count/mean/p99 series.
* **Stream replay** — :meth:`ingest_stream` converts the durable
  stream log into per-channel rate and latency series (submits / delivers /
  drops per interval, delivery latency distributions), so windowed
  queries run over the exact data plane the broker recorded.

Feeding is strictly passive: pure reads of registries and brokers, no
RNG, no CPU charges, no scheduled events beyond the sampler's own
timer — the passivity tests pin that goldens, traces and stream bytes
are bit-identical with the plane on or off.
"""

from __future__ import annotations

import json
import math
import time
from typing import Iterable, Optional, Sequence

from repro.obs.health import (HealthEngine, HealthRule, default_rules)
from repro.obs.tsdb import SERIES_CAPACITY, ObsError, TimeSeriesDB
from repro.telemetry.instruments import (Counter, Gauge, Histogram)

__all__ = ["ObservabilityPlane"]


class ObservabilityPlane:
    """TSDB + health engine + the sampling loop that feeds them."""

    def __init__(self, *, sample_interval: float = 1.0,
                 rules: Optional[Sequence[HealthRule]] = None) -> None:
        self.sample_interval = float(sample_interval)
        self.tsdb = TimeSeriesDB(interval=self.sample_interval)
        self.rules = tuple(rules) if rules is not None \
            else default_rules()
        longest = (SERIES_CAPACITY - 1) * self.sample_interval
        for rule in self.rules:
            if rule.window > longest:
                raise ObsError(
                    f"rule {rule.name!r}: window {rule.window:g} s is "
                    f"longer than the {longest:g} s a series holds at "
                    f"{self.sample_interval:g} s samples")
        self.engine: Optional[HealthEngine] = None
        self.samples_taken = 0
        self.last_sample_at: Optional[float] = None
        #: Host CPU-clock seconds spent inside :meth:`sample` — the
        #: plane accounting for its own cost, the way the telemetry
        #: subsystem accounts for the monitor's.  Deliberately NOT
        #: part of :meth:`snapshot`: it is wall-clock noise, and the
        #: export must stay byte-identical across same-seed runs.
        self.sample_cost_seconds = 0.0
        # Per-node sampling plans: resolved Series handles so repeat
        # ticks skip key construction and dict lookups entirely.
        # Keyed by node name; extended in place when the registry
        # grows (instruments are never removed).
        self._plans: dict[str, tuple[int, list, list, set]] = {}

    # -- wiring --------------------------------------------------------------

    def bind(self, node_names: Iterable[str]) -> None:
        """Create the health engine over the monitored node set."""
        self.engine = HealthEngine(self.tsdb, self.rules,
                                   nodes=sorted(node_names))

    def sampler(self, nodes, clock):
        """The sampling loop, as a backend-neutral process generator.

        ``nodes`` is the runtime's node group; ``clock`` its
        :class:`~repro.runtime.protocol.Clock`.  Spawn it with
        ``node.spawn(plane.sampler(nodes, clock))`` on either backend.
        """
        if self.engine is None:
            self.bind(n.name for n in nodes)
        while True:
            self.sample(nodes, clock.now)
            yield clock.timeout(self.sample_interval)

    # -- feeding -------------------------------------------------------------

    def _node_plan(self, node) -> tuple[list, list]:
        """Resolved ``(series, instrument)`` pairs for one node.

        Built on the first tick (``len(registry)`` is the version
        stamp) and extended in place when the registry gains
        instruments; every later tick reuses the handles, which is
        what keeps the sampler inside the bench overhead budget at
        n=1000.
        """
        registry = node.telemetry
        cached = self._plans.get(node.name)
        if cached is not None and cached[0] == len(registry):
            return cached[1], cached[2]
        tsdb = self.tsdb
        labels = (("node", node.name),)
        if cached is not None:
            _, scalars, hists, planned = cached
        else:
            scalars, hists, planned = [], [], set()
        for name in registry.names():
            if name in planned:
                continue
            planned.add(name)
            inst = registry.get(name)
            if isinstance(inst, Counter):
                scalars.append((tsdb.series(name, labels,
                                            kind="counter"), inst))
            elif isinstance(inst, Gauge):
                scalars.append((tsdb.series(name, labels), inst))
            elif isinstance(inst, Histogram):
                # mean/p99 series stay lazy (slots 1-2) so a
                # never-observed histogram exports exactly the count
                # series, as before.
                hists.append([tsdb.series(
                    name, labels + (("stat", "count"),),
                    kind="counter"), None, None, inst, name, labels])
        self._plans[node.name] = (len(registry), scalars, hists,
                                  planned)
        return scalars, hists

    def sample(self, nodes, now: float) -> None:
        """Snapshot every node's registry into the TSDB at ``now``."""
        t_start = time.perf_counter()
        idx = int(math.floor(now / self.tsdb.interval + 1e-9))
        for node in nodes:
            scalars, hists = self._node_plan(node)
            for series, inst in scalars:
                series.observe_idx(idx, inst.value)
            for entry in hists:
                inst = entry[3]
                count = inst.count
                entry[0].observe_idx(idx, count)
                if count:
                    if entry[1] is None:
                        name, labels = entry[4], entry[5]
                        entry[1] = self.tsdb.series(
                            name, labels + (("stat", "mean"),))
                        entry[2] = self.tsdb.series(
                            name, labels + (("stat", "p99"),))
                    entry[1].observe_idx(idx, inst.mean)
                    entry[2].observe_idx(idx, inst.quantile(0.99))
        self.samples_taken += 1
        self.last_sample_at = now
        if self.engine is not None:
            self.engine.evaluate(now)
        self.sample_cost_seconds += time.perf_counter() - t_start

    def ingest_stream(self, broker) -> int:
        """Replay a durable stream broker into per-channel series.

        Per channel: ``stream.submits`` / ``stream.delivers`` /
        ``stream.drops`` (events per sample interval) and
        ``stream.deliver_latency`` (per-delivery latency
        distribution).  Returns the number of entries ingested.
        Deterministic: channels sorted, entries in seq order, series
        points applied in time order.  A stream whose ring dropped
        entries raises :class:`~repro.stream.StreamError` before any
        series is written.
        """
        from repro.stream import DELIVER, DROP, SUBMIT
        interval = self.sample_interval
        kind_series = {SUBMIT: "stream.submits",
                       DELIVER: "stream.delivers",
                       DROP: "stream.drops"}
        logs = [(channel, broker.entries(channel))
                for channel in broker.channels()]
        ingested = 0
        for channel, entries in logs:
            labels = (("channel", channel),)
            counts: dict[tuple[str, int], int] = {}
            latencies: list[tuple[float, float]] = []
            for entry in entries:
                series = kind_series.get(entry.kind)
                if series is None:  # pragma: no cover - future kinds
                    continue
                bucket = int(math.floor(entry.time / interval + 1e-9))
                counts[(series, bucket)] = \
                    counts.get((series, bucket), 0) + 1
                if entry.kind == DELIVER:
                    latencies.append((entry.time, entry.latency))
                ingested += 1
            for (series, bucket) in sorted(counts):
                self.tsdb.observe(series, labels, bucket * interval,
                                  counts[(series, bucket)])
            latencies.sort(key=lambda r: r[0])
            for t, latency in latencies:
                self.tsdb.observe("stream.deliver_latency", labels,
                                  t, latency)
        return ingested

    # -- read side -----------------------------------------------------------

    def verdict(self, now: Optional[float] = None) -> dict:
        if self.engine is None:
            return {"healthy": True, "rules": [], "transitions": 0}
        return self.engine.verdict(now)

    @property
    def transitions(self) -> list:
        return self.engine.transitions if self.engine is not None \
            else []

    def snapshot(self) -> dict:
        """JSON document of the whole plane (sorted, reproducible)."""
        return {
            "schema": "repro.obs/2",
            "sample_interval": self.sample_interval,
            "samples_taken": self.samples_taken,
            "last_sample_at": self.last_sample_at,
            "tsdb": self.tsdb.snapshot(),
            "health": (self.engine.to_json()
                       if self.engine is not None else None),
        }

    def export_json(self) -> str:
        """Canonical bytes: same seed ⇒ identical string (test-pinned)."""
        return json.dumps(self.snapshot(), sort_keys=True,
                          separators=(",", ":"))
