"""Alarm watchers: edge-triggered conditions on remote metrics.

The paper's motivation includes "observable events … such as system
failures, or the exceeding of resource utilization thresholds".
Thresholds *at the publisher* (params.py) control what is sent; this
module is the consumer-side complement: applications register
predicates over the remote metrics a node already receives, and get a
callback on each rising edge, with hysteresis so a metric hovering
around the bound does not flap.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.dproc.dmon import DMon
from repro.dproc.metrics import MetricId
from repro.errors import DprocError

__all__ = ["Alarm", "AlarmManager", "ALARM_LOG_LINES"]

#: Firings an :class:`AlarmManager` keeps in its log, oldest dropped
#: first; :attr:`Alarm.firings` still counts all of them.
ALARM_LOG_LINES = 256

AlarmCallback = Callable[["Alarm", str, float, float], None]

_alarm_ids = itertools.count(1)


@dataclass
class Alarm:
    """One registered watch.

    Fires the callback when ``predicate(value)`` turns true for a
    watched host's metric (rising edge).  It re-arms only after the
    value has *cleared*: dropped below the predicate with
    ``clear_fraction`` of slack, e.g. a "loadavg > 4" alarm with
    ``clear_fraction=0.1`` re-arms once loadavg ≤ 3.6.
    """

    metric: MetricId
    predicate: Callable[[float], bool]
    callback: AlarmCallback
    host: Optional[str] = None       #: None = any host
    clear_fraction: float = 0.1
    name: str = ""
    alarm_id: int = field(default_factory=lambda: next(_alarm_ids))
    #: hosts currently in the fired state (not yet cleared).
    _fired: set[str] = field(default_factory=set)
    #: total number of firings (observability).
    firings: int = 0
    active: bool = True

    def cancel(self) -> None:
        self.active = False

    def _clears(self, value: float) -> bool:
        """True when the condition has cleared with slack."""
        if self.predicate(value):
            return False
        # Probe with the slack applied in both directions: the alarm
        # clears only if even the inflated/deflated value stays false.
        slack = 1.0 + self.clear_fraction
        return not (self.predicate(value * slack)
                    or self.predicate(value / slack
                                      if slack else value))


class AlarmManager:
    """Watches one d-mon's incoming remote metrics."""

    def __init__(self, dmon: DMon) -> None:
        self.dmon = dmon
        self.alarms: list[Alarm] = []
        #: (alarm_id, host, value, time) of the last firings.
        self.log: deque[tuple[int, str, float, float]] = deque(
            maxlen=ALARM_LOG_LINES)
        dmon.update_hooks.append(self._on_update)

    def watch(self, metric: MetricId,
              predicate: Callable[[float], bool],
              callback: AlarmCallback,
              host: Optional[str] = None,
              clear_fraction: float = 0.1,
              name: str = "") -> Alarm:
        """Register a watch; returns the alarm handle."""
        if clear_fraction < 0:
            raise DprocError("clear fraction cannot be negative")
        alarm = Alarm(metric=metric, predicate=predicate,
                      callback=callback, host=host,
                      clear_fraction=clear_fraction,
                      name=name or f"alarm-{metric.name.lower()}")
        self.alarms.append(alarm)
        return alarm

    def watch_above(self, metric: MetricId, bound: float,
                    callback: AlarmCallback,
                    host: Optional[str] = None, **kw) -> Alarm:
        """Convenience: fire when the metric exceeds ``bound``."""
        return self.watch(metric, lambda v: v > bound, callback,
                          host=host, **kw)

    def watch_below(self, metric: MetricId, bound: float,
                    callback: AlarmCallback,
                    host: Optional[str] = None, **kw) -> Alarm:
        """Convenience: fire when the metric drops under ``bound``."""
        return self.watch(metric, lambda v: v < bound, callback,
                          host=host, **kw)

    # -- internals ------------------------------------------------------------

    def _on_update(self, host: str, metric: MetricId, value: float,
                   timestamp: float) -> None:
        for alarm in list(self.alarms):
            if not alarm.active:
                self.alarms.remove(alarm)
                continue
            if alarm.metric is not metric:
                continue
            if alarm.host is not None and alarm.host != host:
                continue
            if host in alarm._fired:
                if alarm._clears(value):
                    alarm._fired.discard(host)
                continue
            if alarm.predicate(value):
                alarm._fired.add(host)
                alarm.firings += 1
                now = self.dmon.node.env.now
                self.log.append((alarm.alarm_id, host, value, now))
                alarm.callback(alarm, host, value, now)
