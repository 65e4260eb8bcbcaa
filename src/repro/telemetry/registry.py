"""The per-node telemetry registry.

One :class:`TelemetryRegistry` lives on every node
(``node.telemetry``).  An instrument is built by its first write, so
one a node never writes costs it nothing.  An owner names its
instruments once, in a class-level *schema* that every instance
shares (suffix → instrument class, or ``(Histogram, bounds)``), and
declares it under its prefix at construction, which builds nothing;
each hot site binds the group of instruments it writes together on
its first call, behind one ``is None`` check, and keeps the handles::

    TELEMETRY = {"polls": Counter, "cost_seconds": Histogram}

    node.telemetry.declare("mymod.", TELEMETRY)        # __init__
    self._t_polls = self._t_cost = None                # __init__
    if self._t_polls is None:                          # the hot site
        self._t_polls, self._t_cost = node.telemetry.bind(
            "mymod.", "polls", "cost_seconds")

Every reader — :meth:`names`, :meth:`get`, :meth:`value`,
:meth:`snapshot`, :meth:`counters`, ``len`` and ``in`` — sees a
declared instrument no one has written as its zero.  Counters named
only at run time (one per registered module) get-or-create through
:meth:`counter`.  A name always resolves to the same instrument, and
asking for another kind under it is a
:class:`~repro.errors.TelemetryError`.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from repro.errors import TelemetryError
from repro.telemetry.instruments import Counter, Gauge, Histogram

__all__ = ["TelemetryRegistry"]

Instrument = Union[Counter, Gauge, Histogram]


def _build(name: str, spec) -> Instrument:
    return spec[0](name, spec[1]) if isinstance(spec, tuple) \
        else spec(name)


class TelemetryRegistry:
    """Named instruments for one scope (usually one node)."""

    __slots__ = ("scope", "_instruments", "_schemas")

    def __init__(self, scope: str = "") -> None:
        self.scope = scope
        #: Every instrument built so far, by name.
        self._instruments: dict[str, Instrument] = {}
        #: Prefix → the schema declared under it.
        self._schemas: dict[str, Mapping] = {}

    def declare(self, prefix: str, schema: Mapping) -> None:
        """Name ``prefix + suffix`` for every suffix of ``schema``,
        building none of them.  ``schema`` maps a suffix to the
        instrument class, or to ``(Histogram, bounds)`` for a histogram
        with bucket edges of its own; every owner of a class shares
        one.  Declaring the same schema again (a restarted owner)
        changes nothing."""
        if self._schemas.setdefault(prefix, schema) is not schema:
            raise TelemetryError(f"{self.scope}:{prefix}* has another schema")

    def bind(self, prefix: str, *suffixes: str) -> tuple:
        """The declared instruments ``prefix + suffix``, in order,
        built on this first write."""
        schema, built = self._schemas[prefix], self._instruments
        for suffix in suffixes:
            if prefix + suffix not in built:
                built[prefix + suffix] = _build(prefix + suffix,
                                                schema[suffix])
        return tuple(built[prefix + suffix] for suffix in suffixes)

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``: for names known
        only at run time, and for tests that tamper with one."""
        instrument = self.get(name) or Counter(name)
        if not isinstance(instrument, Counter):
            raise TelemetryError(
                f"instrument {self.scope + ':' if self.scope else ''}"
                f"{name} is a {type(instrument).__name__}, not a Counter")
        return self._instruments.setdefault(name, instrument)

    # -- queries ---------------------------------------------------------------

    def get(self, name: str) -> Optional[Instrument]:
        """The instrument called ``name``, or None.  A declared one
        not built yet reads as a fresh zero instrument that the
        registry does not keep."""
        if name in self._instruments:
            return self._instruments[name]
        for prefix, schema in self._schemas.items():
            suffix = name[len(prefix):]
            if name.startswith(prefix) and suffix in schema:
                return _build(name, schema[suffix])
        return None

    def value(self, name: str, default: float = 0.0) -> float:
        """Current value of a counter/gauge (``default`` if absent)."""
        instrument = self.get(name)
        return instrument.value \
            if isinstance(instrument, (Counter, Gauge)) else default

    def counters(self) -> dict[str, float]:
        """Counter name → total: what a live pool worker ships home.

        Picklable and small; :meth:`from_counters` on the receiving
        side turns it back into a registry, so the parent reads remote
        hosts exactly as it reads local ones.
        """
        return {name: instrument.value for name in self.names()
                if isinstance(instrument := self.get(name), Counter)}

    @classmethod
    def from_counters(cls, scope: str,
                      values: dict[str, float]) -> "TelemetryRegistry":
        """A registry holding the totals :meth:`counters` shipped."""
        registry = cls(scope)
        for name, value in values.items():
            registry.counter(name).inc(value)
        return registry

    def names(self, prefix: str = "") -> list[str]:
        """Sorted instrument names, built or declared, optionally
        filtered by prefix."""
        names = set(self._instruments)
        for base, schema in self._schemas.items():
            names.update(base + suffix for suffix in schema)
        return sorted(n for n in names if n.startswith(prefix))

    def snapshot(self, prefix: str = "") -> dict[str, dict]:
        """Name → instrument snapshot, sorted, optionally filtered.

        The result is plain JSON-serialisable data — this is what the
        golden-trace test pins and what the report renderers consume.
        """
        return {name: self.get(name).snapshot()
                for name in self.names(prefix)}

    @property
    def version(self) -> int:
        """Grows whenever a name is declared or an instrument built:
        a reader that keeps handles re-resolves them when it moves."""
        return len(self._instruments) + len(self._schemas)

    def __len__(self) -> int:
        return len(self.names())

    def __bool__(self) -> bool:
        """Always truthy: an *empty* registry is still a registry
        (``__len__`` alone would make ``reg or fallback`` drop it)."""
        return True

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None
