"""Dynamic filter lifecycle: deploy, compile-at-host, execute, remove.

"An application can deploy filters by writing the filter code as string
to the control file in /proc.  It is d-mon's responsibility to
distribute the string to the corresponding hosts via KECho's control
channel.  Incoming filter strings are received by d-mon, which then
dynamically generates binary code.  The resulting filters are executed
by d-mon before any information is submitted to the channel, allowing
the filters to customize (or block) the monitoring information."
(paper §3)

A filter's *scope* is either one resource module ("cpu", "disk", ...)
or "*" for all resources together.  Every filter sees the full metric
record array (so cross-resource conditions work); its scope determines
which metrics it is responsible for publishing.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.dproc.metrics import METRIC_CONSTANTS, MetricId
from repro.ecode import (CompiledFilter, FilterResult, KeyedSample,
                         MetricRecord, compile_filter)
from repro.errors import EcodeError, FilterDeploymentError
from repro.runtime.protocol import RuntimeNode

__all__ = ["DeployedFilter", "FilterManager", "InputRecords"]

_filter_seq = itertools.count(1)

#: ``(metric, record name)`` per slot of the dense ``input[]`` array,
#: in ABI id order.
_INPUT_SLOTS = tuple((MetricId(i), MetricId(i).name.lower())
                     for i in range(max(MetricId) + 1))


@dataclass
class DeployedFilter:
    """One live filter at a publishing host."""

    filter_id: str
    scope: str                    # module name or '*'
    source: str
    compiled: CompiledFilter
    deployed_at: float
    invocations: int = 0
    total_outputs: int = 0
    #: Cumulative (key, value) pairs emitted over the keyed stream.
    total_emitted: int = 0
    errors: int = 0
    compile_cpu_seconds: float = field(default=0.0)


class FilterManager:
    """Per-node registry of deployed dynamic filters."""

    def __init__(self, node: RuntimeNode) -> None:
        self.node = node
        self._by_id: dict[str, DeployedFilter] = {}
        self._by_scope: dict[str, DeployedFilter] = {}

    # -- deployment -----------------------------------------------------------

    def deploy(self, source: str, scope: str = "*",
               filter_id: Optional[str] = None) -> DeployedFilter:
        """Compile ``source`` at this host and install it.

        Compilation cost is charged to this node's CPU — dynamic code
        generation happens *at the publisher*, preserving the paper's
        heterogeneity argument.  An existing filter with the same scope
        is replaced.
        """
        if filter_id is None:
            filter_id = f"{self.node.name}-f{next(_filter_seq)}"
        if filter_id in self._by_id:
            raise FilterDeploymentError(
                f"filter id {filter_id!r} already deployed")
        try:
            compiled = compile_filter(source, constants=METRIC_CONSTANTS)
        except EcodeError as exc:
            raise FilterDeploymentError(
                f"filter {filter_id!r} failed to compile: {exc}") from exc
        cost = self.node.costs.filter_compile
        self.node.charge_kernel_seconds(cost)
        deployed = DeployedFilter(
            filter_id=filter_id, scope=scope, source=source,
            compiled=compiled, deployed_at=self.node.env.now,
            compile_cpu_seconds=cost)
        old = self._by_scope.get(scope)
        if old is not None:
            del self._by_id[old.filter_id]
        self._by_scope[scope] = deployed
        self._by_id[filter_id] = deployed
        return deployed

    def remove(self, filter_id: str) -> None:
        """Tear a filter down (error if unknown)."""
        deployed = self._by_id.pop(filter_id, None)
        if deployed is None:
            raise FilterDeploymentError(
                f"no deployed filter with id {filter_id!r}")
        self._by_scope.pop(deployed.scope, None)

    def reset_state(self) -> None:
        """Drop every deployed filter's persistent sketch state.

        Called on DMon restart epochs: a rebooted node's sketch
        counters (count-min cells, top-K weights) must start empty
        instead of leaking monitoring history across the crash.
        """
        for deployed in self._by_id.values():
            deployed.compiled.reset_state()

    # -- lookup ---------------------------------------------------------------

    def filter_for(self, scope: str) -> Optional[DeployedFilter]:
        return self._by_scope.get(scope)

    @property
    def global_filter(self) -> Optional[DeployedFilter]:
        return self._by_scope.get("*")

    def deployed(self) -> list[DeployedFilter]:
        return list(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)

    # -- execution ------------------------------------------------------------

    def run(self, deployed: DeployedFilter,
            records: list[MetricRecord],
            keyed: Optional[list[KeyedSample]] = None) -> FilterResult:
        """Execute one filter over the full record array (plus the
        optional keyed record table).

        The caller (d-mon) accounts for the execution cost.  A filter
        that raises is counted and treated as "publish nothing" — a
        broken filter must not take d-mon down (the paper's in-kernel
        safety requirement).
        """
        deployed.invocations += 1
        try:
            result = deployed.compiled.run(records, keyed=keyed)
        except EcodeError:
            deployed.errors += 1
            return FilterResult(outputs=[], returned=None, steps=0)
        deployed.total_outputs += len(result.outputs)
        deployed.total_emitted += len(result.emitted)
        return result

    def input_array(self, samples: Mapping[MetricId, float],
                    last_sent: Mapping[MetricId, float],
                    now: float) -> Sequence[MetricRecord]:
        """The dense ``input[]`` record array for filters.

        Metrics not collected this round appear as zero-valued records
        so that fixed metric indices always resolve.
        """
        return InputRecords(samples, last_sent, now)


class InputRecords(Sequence[MetricRecord]):
    """One poll's dense, read-only ``input[]`` array.

    A slot's record is built on its first read and kept: a filter
    reads a few of the slots, and filters never write ``input[]``
    (the analyzer rejects it), so the filters of one poll share the
    records.  The array reads ``samples`` and ``last_sent`` when a slot
    is first built, so it is valid for the poll that made it.
    """

    __slots__ = ("_samples", "_last_sent", "_now", "_built")

    def __init__(self, samples: Mapping[MetricId, float],
                 last_sent: Mapping[MetricId, float], now: float) -> None:
        self._samples = samples
        self._last_sent = last_sent
        self._now = now
        self._built: list[Optional[MetricRecord]] = [None] * len(
            _INPUT_SLOTS)

    def __len__(self) -> int:
        return len(_INPUT_SLOTS)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        record = self._built[index]
        if record is None:
            metric, name = _INPUT_SLOTS[index]
            record = self._built[index] = MetricRecord(
                name, float(self._samples.get(metric, 0.0)),
                float(self._last_sent.get(metric, 0.0)), self._now)
        return record
