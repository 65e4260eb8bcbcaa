"""The dproc parameter engine: update periods and thresholds.

The paper distinguishes two parameter kinds (§3):

* **update periods** — how often a metric is published;
* **thresholds** — conditions on the metric value, in three forms:
  percentage change versus the last *sent* value ("if x varies by 10 %
  from the last measurement" — this is the evaluation's *differential
  filter* at 15 %), fixed bounds ("if x < y*1.1"), and ranges
  ("if x is in the range [y, z]").

Periods and thresholds combine conjunctively: "update the CPU
information once every 2 seconds IF the CPU utilization is above 80 %".
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ControlSyntaxError

__all__ = [
    "ThresholdRule", "AboveThreshold", "BelowThreshold",
    "ChangeThreshold", "RangeThreshold", "MetricPolicy",
    "parse_threshold_spec",
]


class ThresholdRule(ABC):
    """A publish-condition on a metric value."""

    @abstractmethod
    def should_send(self, value: float, last_sent: Optional[float]) -> bool:
        """True when the new ``value`` warrants publication.

        ``last_sent`` is the most recently published value, or None if
        nothing has been published yet (always publish then).
        """

    @abstractmethod
    def spec(self) -> str:
        """Round-trippable textual form (for control-file reads)."""


@dataclass(frozen=True)
class AboveThreshold(ThresholdRule):
    """Publish while the value exceeds a bound."""

    bound: float

    def should_send(self, value: float, last_sent: Optional[float]) -> bool:
        return value > self.bound

    def spec(self) -> str:
        return f"above {self.bound:g}"


@dataclass(frozen=True)
class BelowThreshold(ThresholdRule):
    """Publish while the value is under a bound."""

    bound: float

    def should_send(self, value: float, last_sent: Optional[float]) -> bool:
        return value < self.bound

    def spec(self) -> str:
        return f"below {self.bound:g}"


@dataclass(frozen=True)
class ChangeThreshold(ThresholdRule):
    """Publish when the value moved by ≥ ``percent`` % since last sent.

    This is the paper's *differential filter*: "monitoring information
    is sent only if the utilization of a resource varies by at least
    15 % from the last measured result".
    """

    percent: float

    def should_send(self, value: float, last_sent: Optional[float]) -> bool:
        if last_sent is None:
            return True
        reference = abs(last_sent)
        if reference < 1e-12:
            return abs(value) > 1e-12
        # Tiny tolerance so an exactly-15% move passes a 15% rule
        # despite floating-point representation error.
        return abs(value - last_sent) / reference \
            >= self.percent / 100.0 - 1e-12

    def spec(self) -> str:
        return f"change {self.percent:g}"


@dataclass(frozen=True)
class RangeThreshold(ThresholdRule):
    """Publish while the value lies inside ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ControlSyntaxError(
                f"empty threshold range [{self.lo:g}, {self.hi:g}]")

    def should_send(self, value: float, last_sent: Optional[float]) -> bool:
        return self.lo <= value <= self.hi

    def spec(self) -> str:
        return f"range {self.lo:g} {self.hi:g}"


@dataclass
class MetricPolicy:
    """Per-metric publication policy: a period AND any thresholds.

    ``period = None`` means "every polling iteration".  All configured
    conditions must hold for a sample to be published.
    """

    period: Optional[float] = None
    thresholds: list[ThresholdRule] = field(default_factory=list)

    def set_period(self, seconds: float) -> None:
        if seconds <= 0 or not math.isfinite(seconds):
            raise ControlSyntaxError(
                f"update period must be positive, got {seconds!r}")
        self.period = float(seconds)

    def clear_period(self) -> None:
        self.period = None

    def add_threshold(self, rule: ThresholdRule) -> None:
        self.thresholds.append(rule)

    def clear_thresholds(self) -> None:
        self.thresholds.clear()

    @property
    def is_default(self) -> bool:
        return self.period is None and not self.thresholds

    def should_send(self, value: float, now: float,
                    last_sent: Optional[float],
                    last_sent_at: Optional[float]) -> bool:
        """Decide whether to publish ``value`` sampled at ``now``."""
        if self.period is not None and last_sent_at is not None:
            # Tolerate scheduler jitter of one part in a million.
            if now - last_sent_at < self.period * (1 - 1e-6):
                return False
        return all(rule.should_send(value, last_sent)
                   for rule in self.thresholds)

    def describe(self) -> str:
        """Human-readable policy (control-file read content)."""
        parts = []
        if self.period is not None:
            parts.append(f"period {self.period:g}")
        parts.extend(t.spec() for t in self.thresholds)
        return "; ".join(parts) if parts else "default"


def parse_threshold_spec(words: list[str]) -> ThresholdRule:
    """Parse a threshold spec: ``above V | below V | change P | range L H``."""
    if not words:
        raise ControlSyntaxError("missing threshold specification")
    kind, args = words[0].lower(), words[1:]

    def number(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ControlSyntaxError(f"bad number {text!r} in threshold")
        return value

    if kind == "above":
        if len(args) != 1:
            raise ControlSyntaxError("usage: above <value>")
        return AboveThreshold(number(args[0]))
    if kind == "below":
        if len(args) != 1:
            raise ControlSyntaxError("usage: below <value>")
        return BelowThreshold(number(args[0]))
    if kind == "change":
        if len(args) != 1:
            raise ControlSyntaxError("usage: change <percent>")
        pct = number(args[0].rstrip("%"))
        if pct <= 0:
            raise ControlSyntaxError("change percentage must be positive")
        return ChangeThreshold(pct)
    if kind == "range":
        if len(args) != 2:
            raise ControlSyntaxError("usage: range <lo> <hi>")
        return RangeThreshold(number(args[0]), number(args[1]))
    raise ControlSyntaxError(f"unknown threshold kind {kind!r}")
