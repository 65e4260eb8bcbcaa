"""Declarative policies: observed metrics in, typed adaptations out.

A :class:`Policy` is the paper's resource-aware decision logic as a
frozen, backend-neutral value object: every decision tick the
experiment engine hands it a :class:`MetricView` (what the observer's
d-proc currently knows about the monitored hosts) and the policy
returns :class:`Action`\\ s — typed
:class:`~repro.dproc.control_api.ControlRequest`\\ s aimed at target
hosts.  Policies are pure with respect to themselves: per-run mutable
state (hysteresis latches) lives in the engine-owned ``state`` dict,
so the *same* policy instances run unmodified on sim and live.

The three shapes mirror the paper's Figs. 12-14 sweep:

* :class:`StaticPolicy` — fixed requests applied once at start
  (static resource allocation);
* :class:`ThresholdPolicy` — single-resource dynamic adaptation with
  high/low hysteresis (relief when the metric crosses ``high``,
  restore when it falls back under ``low``);
* :class:`MultiResourcePolicy` — one :class:`ResourceRule` per
  resource, each with its own hysteresis latch and its own relief,
  so a CPU-constrained host gets a different adaptation than a
  network-constrained one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.dproc.control_api import ControlRequest
from repro.dproc.metrics import MetricId

__all__ = ["Action", "MetricView", "Policy", "StaticPolicy",
           "ThresholdPolicy", "MultiResourcePolicy", "ResourceRule"]


@dataclass(frozen=True)
class Action:
    """One adaptation: a typed control request for one target host."""

    target: str
    request: ControlRequest
    #: Why the policy decided this (lands in the audit trail).
    reason: str = ""
    #: The observation that triggered it (NaN when not metric-driven).
    observed: float = math.nan


class MetricView:
    """What a policy sees at one decision tick.

    A read-only window over the observer d-proc's remote-metric cache:
    per-host values, their staleness, and the tick time.  Identical
    surface on every backend — on sim the values are simulated, on
    live they come off the real wire.
    """

    def __init__(self, dproc, hosts: Sequence[str], now: float) -> None:
        self._dproc = dproc
        self.hosts = list(hosts)
        self.now = float(now)

    def value(self, host: str, metric: MetricId) -> float:
        """Latest known value (NaN until first delivery)."""
        return self._dproc.metric(host, metric)

    def staleness(self, host: str, metric: MetricId) -> float:
        """Seconds since the observer learned this value (inf if never)."""
        if host == self._dproc.node.name:
            return 0.0
        remote = self._dproc.dmon.remote_value(host, metric)
        if remote is None:
            return math.inf
        return max(0.0, self.now - remote.received_at)

    def fresh_hosts(self, metric: MetricId) -> list[str]:
        """Hosts whose ``metric`` has been delivered at least once."""
        return [h for h in self.hosts
                if not math.isnan(self.value(h, metric))]


class Policy:
    """Base policy: observe a :class:`MetricView`, emit no actions."""

    name = "none"

    def initial(self, view: MetricView) -> list[Action]:
        """Actions applied once, on the first tick."""
        return []

    def decide(self, view: MetricView, state: dict) -> list[Action]:
        """Actions for this tick; ``state`` is engine-owned per-run."""
        return []


@dataclass(frozen=True)
class StaticPolicy(Policy):
    """Fixed requests applied to every target once, at start."""

    request: ControlRequest = None
    name: str = "static"

    def initial(self, view: MetricView) -> list[Action]:
        if self.request is None:
            return []
        return [Action(target=host, request=self.request,
                       reason="static allocation")
                for host in view.hosts]

    def decide(self, view: MetricView, state: dict) -> list[Action]:
        return []


@dataclass(frozen=True)
class ResourceRule:
    """One resource's hysteresis band and its relief/restore requests."""

    resource: str
    metric: MetricId
    high: float
    relief: ControlRequest
    low: Optional[float] = None
    restore: Optional[ControlRequest] = None

    def engaged_key(self, host: str) -> tuple:
        return (self.resource, host)


def _decide_rules(rules: Sequence[ResourceRule], policy_name: str,
                  view: MetricView, state: dict) -> list[Action]:
    """Shared hysteresis walk: one latch per (rule, host)."""
    actions: list[Action] = []
    for rule in rules:
        low = rule.low if rule.low is not None else rule.high
        for host in view.hosts:
            value = view.value(host, rule.metric)
            if math.isnan(value):
                continue
            key = rule.engaged_key(host)
            engaged = state.get(key, False)
            if not engaged and value > rule.high:
                state[key] = True
                actions.append(Action(
                    target=host, request=rule.relief, observed=value,
                    reason=(f"{rule.resource} constrained: "
                            f"{rule.metric.name}={value:g} > "
                            f"{rule.high:g}")))
            elif engaged and value < low \
                    and rule.restore is not None:
                state[key] = False
                actions.append(Action(
                    target=host, request=rule.restore, observed=value,
                    reason=(f"{rule.resource} recovered: "
                            f"{rule.metric.name}={value:g} < "
                            f"{low:g}")))
    return actions


@dataclass(frozen=True)
class ThresholdPolicy(Policy):
    """Single-resource dynamic adaptation with hysteresis."""

    metric: MetricId = MetricId.LOADAVG
    high: float = 1.0
    relief: ControlRequest = None
    low: Optional[float] = None
    restore: Optional[ControlRequest] = None
    resource: str = "cpu"
    name: str = "dynamic"

    def decide(self, view: MetricView, state: dict) -> list[Action]:
        rule = ResourceRule(resource=self.resource, metric=self.metric,
                            high=self.high, relief=self.relief,
                            low=self.low, restore=self.restore)
        return _decide_rules((rule,), self.name, view, state)


@dataclass(frozen=True)
class MultiResourcePolicy(Policy):
    """Per-resource rules, each with its own latch and adaptation."""

    rules: tuple = field(default_factory=tuple)
    name: str = "multi-resource"

    def decide(self, view: MetricView, state: dict) -> list[Action]:
        return _decide_rules(self.rules, self.name, view, state)
