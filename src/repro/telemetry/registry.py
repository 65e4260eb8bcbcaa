"""The per-node telemetry registry.

One :class:`TelemetryRegistry` lives on every simulated node
(``node.telemetry``).  Subsystems get-or-create named instruments from
it — a new module needs no pipeline changes to gain metrics, just::

    polls = node.telemetry.counter("mymod.polls")
    cost = node.telemetry.histogram("mymod.cost_seconds")

Names are dotted paths; reports group on the first component.  The
same name always returns the same instrument (asking for a different
kind under an existing name is a :class:`~repro.errors.TelemetryError`),
so instrumentation sites can bind eagerly at construction or lazily at
first use and still share state.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.errors import TelemetryError
from repro.telemetry.instruments import Counter, Gauge, Histogram

__all__ = ["TelemetryRegistry"]

Instrument = Union[Counter, Gauge, Histogram]


class TelemetryRegistry:
    """Named instruments for one scope (usually one node)."""

    __slots__ = ("scope", "_instruments")

    def __init__(self, scope: str = "") -> None:
        self.scope = scope
        self._instruments: dict[str, Instrument] = {}

    # -- instrument factories ------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        """Get or create the histogram called ``name``.

        ``bounds`` applies only on first creation; later callers share
        the existing bucket layout.
        """
        return self._get(name, Histogram, bounds=bounds)

    # -- queries ---------------------------------------------------------------

    def get(self, name: str) -> Optional[Instrument]:
        """The instrument called ``name``, or None."""
        return self._instruments.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """Current value of a counter/gauge (``default`` if absent)."""
        instrument = self._instruments.get(name)
        if isinstance(instrument, (Counter, Gauge)):
            return instrument.value
        return default

    def counters(self) -> dict[str, float]:
        """Counter name → total: what a live pool worker ships home.

        Picklable and small; :meth:`from_counters` on the receiving
        side turns it back into a registry, so the parent reads remote
        hosts exactly as it reads local ones.
        """
        return {name: inst.value
                for name, inst in self._instruments.items()
                if isinstance(inst, Counter)}

    @classmethod
    def from_counters(cls, scope: str,
                      values: dict[str, float]) -> "TelemetryRegistry":
        """A registry holding the totals :meth:`counters` shipped."""
        registry = cls(scope)
        for name, value in values.items():
            registry.counter(name).inc(value)
        return registry

    def names(self, prefix: str = "") -> list[str]:
        """Sorted instrument names, optionally filtered by prefix."""
        return sorted(n for n in self._instruments
                      if n.startswith(prefix))

    def snapshot(self, prefix: str = "") -> dict[str, dict]:
        """Name → instrument snapshot, sorted, optionally filtered.

        The result is plain JSON-serialisable data — this is what the
        golden-trace test pins and what the report renderers consume.
        """
        return {name: self._instruments[name].snapshot()
                for name in self.names(prefix)}

    def __len__(self) -> int:
        return len(self._instruments)

    def __bool__(self) -> bool:
        """Always truthy: an *empty* registry is still a registry
        (``__len__`` alone would make ``reg or fallback`` drop it)."""
        return True

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    # -- internals ------------------------------------------------------------

    def _get(self, name: str, cls, **options) -> Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TelemetryError(
                    f"{self._label(name)} is a "
                    f"{type(existing).__name__}, not a {cls.__name__}")
            return existing
        instrument = cls(name, **options)
        self._instruments[name] = instrument
        return instrument

    def _label(self, name: str) -> str:
        return f"instrument {self.scope + ':' if self.scope else ''}" \
               f"{name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TelemetryRegistry {self.scope or '?'} "
                f"{len(self._instruments)} instruments>")
