"""The declarative health/SLO engine over the metrics plane.

Rules are data (:class:`HealthRule`): *which* windowed query to run
against the TSDB (``agg`` ∈ rate / avg / p50 / p99 / max / min over
``window`` seconds), *what* must hold of the result (``op`` +
``threshold``), and *how sticky* the verdict is (``for_bad`` /
``for_ok`` consecutive evaluations — the hysteresis that keeps one
noisy sample from flapping an alert).  A rule with ``scope="node"``
is evaluated once per monitored node against that node's series; a
``scope="cluster"`` rule runs once against an unlabelled series.

The engine is deterministic and passive: evaluation order is (sorted
rule name, sorted subject), queries are pure reads, and every state
flip is recorded as a :class:`HealthTransition` on the engine's
``transitions``, which keeps the last :data:`HEALTH_LOG_MAX_LEN`.

:func:`attribute_transitions` closes the audit loop: each
degraded→recovered window is matched against the fault-plane drop
entries the durable stream recorded inside it, so a chaos run's alert
can name the injected fault that caused it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.dproc.dmon import MONITOR_CHANNEL
from repro.obs.tsdb import ObsError, TimeSeriesDB

__all__ = ["HealthRule", "HealthTransition", "HealthEngine",
           "default_rules", "attribute_transitions",
           "HEALTHY", "DEGRADED"]

HEALTHY = "healthy"
DEGRADED = "degraded"

#: Transitions an engine keeps, oldest dropped first: far above the
#: flips of any run in ``tests/`` or ``benchmarks/``, so only a long or
#: flapping run reaches it.
HEALTH_LOG_MAX_LEN = 10_000

#: ``pNN``: the NN-th percentile over the window, 0 <= NN <= 100.
_PERCENTILE = re.compile(r"p(\d+(?:\.\d+)?)")

_OPS = {
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
}


@dataclass(frozen=True)
class HealthRule:
    """One SLO: ``agg(metric[stat] over window) op threshold`` must hold.

    A query that returns NaN (no samples yet) is *vacuously healthy*:
    silence is the steady state before the first scrape, not an alert.
    """

    name: str
    metric: str
    threshold: float
    op: str = "<"
    agg: str = "avg"
    window: float = 10.0
    #: Value of the ``stat`` label on sampled histogram series
    #: ("count", "mean", "p99"); "" selects the plain series.
    stat: str = ""
    scope: str = "node"
    #: Consecutive failing evaluations before the verdict degrades.
    for_bad: int = 2
    #: Consecutive passing evaluations before it recovers.
    for_ok: int = 2

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ObsError(f"rule {self.name!r}: unknown op {self.op!r}")
        if self.scope not in ("node", "cluster"):
            raise ObsError(
                f"rule {self.name!r}: unknown scope {self.scope!r}")
        if self.window <= 0 or self.for_bad < 1 or self.for_ok < 1:
            raise ObsError(f"rule {self.name!r}: bad window/hysteresis")
        if self.agg not in ("rate", "avg", "max", "min"):
            match = _PERCENTILE.fullmatch(self.agg)
            if match is None or float(match.group(1)) > 100.0:
                raise ObsError(f"rule {self.name!r}: unknown "
                               f"aggregation {self.agg!r}")

    def labels(self, node: str = "") -> tuple:
        labels = []
        if self.scope == "node":
            labels.append(("node", node))
        if self.stat:
            labels.append(("stat", self.stat))
        return tuple(labels)

    def query(self, tsdb: TimeSeriesDB, node: str,
              now: float) -> float:
        labels = self.labels(node)
        if self.agg == "rate":
            return tsdb.rate(self.metric, labels,
                             window=self.window, now=now)
        if self.agg == "avg":
            return tsdb.avg_over_time(self.metric, labels,
                                      window=self.window, now=now)
        if self.agg == "max":
            return tsdb.max_over_time(self.metric, labels,
                                      window=self.window, now=now)
        if self.agg == "min":
            return tsdb.min_over_time(self.metric, labels,
                                      window=self.window, now=now)
        return tsdb.quantile_over_time(
            float(self.agg[1:]) / 100.0, self.metric, labels,
            window=self.window, now=now)

    def holds(self, value: float) -> bool:
        if value != value:
            return True
        return _OPS[self.op](value, self.threshold)


@dataclass(frozen=True)
class HealthTransition:
    """One verdict flip for (rule, subject)."""

    time: float
    rule: str
    #: Node name, or "cluster" for rollups and cluster-scope rules.
    subject: str
    from_status: str
    to_status: str
    #: The query value that tripped (or cleared) the rule.
    value: float
    threshold: float

    def to_record(self) -> dict:
        return {"time": self.time, "rule": self.rule,
                "subject": self.subject, "from": self.from_status,
                "to": self.to_status, "value": self.value,
                "threshold": self.threshold}


@dataclass
class _RuleState:
    status: str = HEALTHY
    bad_streak: int = 0
    ok_streak: int = 0
    last_value: float = math.nan


class HealthEngine:
    """Evaluates rules against a TSDB and tracks sticky verdicts."""

    def __init__(self, tsdb: TimeSeriesDB,
                 rules: Sequence[HealthRule],
                 nodes: Sequence[str] = ()) -> None:
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ObsError("duplicate health rule names")
        self.tsdb = tsdb
        self.rules = tuple(sorted(rules, key=lambda r: r.name))
        self.nodes = tuple(sorted(nodes))
        #: Every verdict flip in order, bounded by
        #: :data:`HEALTH_LOG_MAX_LEN`.
        self.transitions: list[HealthTransition] = []
        self._states: dict[tuple[str, str], _RuleState] = {}
        self.evaluations = 0

    def _subjects(self, rule: HealthRule) -> tuple[str, ...]:
        return self.nodes if rule.scope == "node" else ("cluster",)

    def _state(self, rule: str, subject: str) -> _RuleState:
        key = (rule, subject)
        st = self._states.get(key)
        if st is None:
            st = self._states[key] = _RuleState()
        return st

    def evaluate(self, now: float) -> None:
        """Run every rule once at time ``now`` (deterministic order)."""
        self.evaluations += 1
        for rule in self.rules:
            for subject in self._subjects(rule):
                node = subject if rule.scope == "node" else ""
                value = rule.query(self.tsdb, node, now)
                st = self._state(rule.name, subject)
                st.last_value = value
                if rule.holds(value):
                    st.ok_streak += 1
                    st.bad_streak = 0
                    if st.status == DEGRADED \
                            and st.ok_streak >= rule.for_ok:
                        self._flip(now, rule, subject, st, HEALTHY,
                                   value)
                else:
                    st.bad_streak += 1
                    st.ok_streak = 0
                    if st.status == HEALTHY \
                            and st.bad_streak >= rule.for_bad:
                        self._flip(now, rule, subject, st, DEGRADED,
                                   value)

    def _flip(self, now: float, rule: HealthRule, subject: str,
              st: _RuleState, to_status: str, value: float) -> None:
        transition = HealthTransition(
            time=now, rule=rule.name, subject=subject,
            from_status=st.status, to_status=to_status, value=value,
            threshold=rule.threshold)
        st.status = to_status
        self.transitions.append(transition)
        if len(self.transitions) > HEALTH_LOG_MAX_LEN:
            del self.transitions[0]

    # -- read side ----------------------------------------------------------

    def status(self, rule: str, subject: str) -> str:
        return self._state(rule, subject).status

    def verdict(self, now: Optional[float] = None) -> dict:
        """The rolled-up verdict document ``/healthz`` serves.

        Per rule: every degraded subject is listed; the cluster row
        for a node-scope rule is degraded iff any node is.
        """
        rows: list[dict] = []
        healthy = True
        for rule in self.rules:
            degraded_subjects = []
            worst_value = math.nan
            for subject in self._subjects(rule):
                st = self._state(rule.name, subject)
                if st.status == DEGRADED:
                    degraded_subjects.append(subject)
                    worst_value = st.last_value
            status = DEGRADED if degraded_subjects else HEALTHY
            healthy = healthy and status == HEALTHY
            row = {"rule": rule.name, "subject": "cluster",
                   "status": status,
                   "threshold": rule.threshold,
                   "degraded_subjects": degraded_subjects}
            if degraded_subjects:
                row["value"] = worst_value
            rows.append(row)
        doc = {"healthy": healthy, "rules": rows,
               "transitions": len(self.transitions)}
        if now is not None:
            doc["time"] = now
        return doc

    def to_json(self) -> dict:
        """Full engine state for the canonical obs export."""
        return {
            "rules": [
                {"name": r.name, "metric": r.metric, "stat": r.stat,
                 "agg": r.agg, "window": r.window, "op": r.op,
                 "threshold": r.threshold, "scope": r.scope,
                 "for_bad": r.for_bad, "for_ok": r.for_ok}
                for r in self.rules],
            "transitions": [t.to_record() for t in self.transitions],
            "verdict": self.verdict(),
        }


def default_rules() -> tuple[HealthRule, ...]:
    """The stock SLO set the harness and benchmarks evaluate.

    * ``delivery-latency-p99`` — p99 of the monitoring channel's
      sampled delivery-latency p99 series stays under 250 ms;
    * ``drop-burn`` — the fault-plane drop counter burns less than
      one drop per node-second over a 10 s window (ten of the paper's
      1 s polls; its loss windows trip this);
    * ``monitor-cpu-burn`` — the monitor's own collect+submit CPU
      burns below 5% of a core per node.
    """
    window = 10.0
    metric = f"kecho.{MONITOR_CHANNEL}.delivery_seconds"
    return (
        HealthRule(name="delivery-latency-p99", metric=metric,
                   stat="p99", agg="p99", window=window,
                   op="<", threshold=0.25),
        HealthRule(name="drop-burn", metric="net.drops_fault",
                   agg="rate", window=window, op="<", threshold=1.0),
        HealthRule(name="monitor-cpu-burn",
                   metric="dmon.collect_seconds", agg="rate",
                   window=window, op="<", threshold=0.05),
    )


def attribute_transitions(transitions: Iterable[HealthTransition],
                          broker) -> list[dict]:
    """Attribute each degraded window to recorded fault-plane drops.

    Pairs each degraded→recovered flip per (rule, subject) — an open
    window uses +inf as its end — and collects the distinct ``fault``
    strings of the durable stream's DROP entries inside the window
    (``broker`` is the data-plane :class:`repro.stream.StreamBroker`).
    A window with at least one overlapping drop is ``attributed``.
    A stream whose ring dropped entries raises
    :class:`~repro.stream.StreamError`.
    """
    from repro.stream import DROP
    windows: list[dict] = []
    open_at: dict[tuple[str, str], HealthTransition] = {}
    for tr in sorted(transitions,
                     key=lambda t: (t.time, t.rule, t.subject)):
        key = (tr.rule, tr.subject)
        if tr.to_status == DEGRADED:
            open_at[key] = tr
        elif tr.to_status == HEALTHY and key in open_at:
            start = open_at.pop(key)
            windows.append({"rule": tr.rule, "subject": tr.subject,
                            "start": start.time, "end": tr.time})
    for key, start in sorted(open_at.items()):
        windows.append({"rule": key[0], "subject": key[1],
                        "start": start.time, "end": math.inf})
    drops = []
    if broker is not None:
        for channel in broker.channels():
            for entry in broker.entries(channel):
                if entry.kind == DROP:
                    drops.append(entry)
    for window in windows:
        subject = window["subject"]
        faults = sorted({
            d.fault for d in drops
            if window["start"] - 1e-9 <= d.time <= window["end"]
            and (subject == "cluster" or subject in (d.source, d.dest))
        })
        window["faults"] = faults
        window["attributed"] = bool(faults)
    return windows
