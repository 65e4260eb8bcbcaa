"""Monitoring-module protocol.

d-mon "maintains a list of all registered services and uses this
callback function to retrieve monitoring information from them at
regular intervals" (paper §2).  A module is registered with
:meth:`~repro.dproc.dmon.DMon.register_service`; its :meth:`collect`
callback is invoked once per polling iteration.

``collect(now)`` returns one value per metric, in :meth:`metrics`
order — a column, not a record per reading.  d-mon lays the columns
of every module side by side once per layout and builds one
:class:`~repro.dproc.batch.RecordBatch` per poll from them, so the
metric ids are never restated per poll.

Modules are dynamically addable: new ones can be registered at run time
without restarting d-mon (the paper's loadable-kernel-module
extensibility).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.dproc.metrics import MetricId
from repro.errors import DprocError
from repro.runtime.protocol import RuntimeNode

__all__ = ["KeyedSample", "MonitoringModule"]


#: One keyed record ``(key, cpu, mem, io)`` — the per-PID stream shape
#: shared with the E-code runtime (`repro.ecode.runtime.KeyedSample`).
KeyedSample = tuple[int, float, float, float]


class MonitoringModule(ABC):
    """Base class for d-mon monitoring services."""

    #: Module name ('cpu', 'mem', 'disk', 'net', 'pmc', ...).
    name: str = "?"

    #: True when the module also produces a *keyed* record stream
    #: (:meth:`keyed_collect`) — e.g. a per-PID process table — that
    #: d-mon feeds to sketch filters instead of the MetricId path.
    provides_keyed: bool = False

    def __init__(self, node: RuntimeNode) -> None:
        self.node = node
        self.started = False

    def start(self) -> None:
        """Begin any background activity (kernel threads)."""
        self.started = True

    def stop(self) -> None:
        """Stop background activity."""
        self.started = False

    @abstractmethod
    def metrics(self) -> tuple[MetricId, ...]:
        """The metric ids this module produces."""

    @abstractmethod
    def collect(self, now: float) -> Sequence[float]:
        """d-mon's registered callback: sample all metrics now, one
        value per metric in :meth:`metrics` order."""

    def keyed_collect(self, now: float) -> list[KeyedSample]:
        """Per-key records for this poll (``provides_keyed`` modules)."""
        return []

    def configure(self, key: str, value: float) -> None:
        """Adjust a module option (unknown keys are an error)."""
        raise DprocError(
            f"module {self.name!r} has no option {key!r}")
