"""Runtime support for compiled E-code filters.

A filter runs against the *monitoring record array* the paper's example
shows: ``input[LOADAVG].value``, ``input[X].last_value_sent``, writes to
``output[i]``.  This module provides those objects plus the execution
environment (guarded arithmetic, step limits, builtins).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.ecode.sketches import (SKETCH_BUILTINS, SketchSpace)  # noqa: F401
from repro.errors import EcodeLimitError, EcodeRuntimeError

__all__ = ["MetricRecord", "InputView", "OutputArray", "ExecEnv",
           "FilterResult", "RECORD_FIELDS", "BUILTINS",
           "SKETCH_BUILTINS", "KEYED_BUILTINS", "SketchSpace",
           "KeyedSample"]

#: Numeric fields available on a record inside a filter.
RECORD_FIELDS = ("value", "last_value_sent", "timestamp")

#: Builtin functions: name -> (arity, implementation).
BUILTINS = {
    "abs": (1, abs),
    "fabs": (1, lambda x: abs(float(x))),
    "min": (2, min),
    "max": (2, max),
    "floor": (1, math.floor),
    "ceil": (1, math.ceil),
    "sqrt": (1, math.sqrt),
}

#: Keyed-stream builtins, dispatched on :class:`ExecEnv`:
#: name -> (argument kinds, result kind).  They read the optional
#: per-key record table (e.g. the per-PID process table a proc module
#: collected this poll) and emit ``(key, value)`` summary pairs —
#: the top-K path out of a filter.
KEYED_BUILTINS: dict[str, tuple[tuple[str, ...], str]] = {
    "nproc": ((), "int"),
    "proc_pid": (("int",), "int"),
    "proc_cpu": (("int",), "double"),
    "proc_mem": (("int",), "double"),
    "proc_io": (("int",), "double"),
    "emit": (("int", "num"), "int"),
}

#: One keyed record: ``(key, cpu, mem, io)`` — for the proc module the
#: key is a PID, cpu a core share in [0, n_cores], mem bytes resident,
#: io bytes/s.
KeyedSample = tuple[int, float, float, float]


@dataclass
class MetricRecord:
    """One monitored sample as seen by a filter.

    ``last_value_sent`` is the value most recently *published* for this
    metric — the paper's differential filter compares against it.
    """

    name: str
    value: float
    last_value_sent: float = 0.0
    timestamp: float = 0.0

    def copy(self) -> "MetricRecord":
        return MetricRecord(self.name, self.value, self.last_value_sent,
                            self.timestamp)


class InputView:
    """Read-only indexed view of the input records (not copied)."""

    def __init__(self, records: Sequence[MetricRecord]) -> None:
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def fetch(self, index: object) -> MetricRecord:
        if not isinstance(index, int) or isinstance(index, bool):
            raise EcodeRuntimeError(
                f"input index must be an integer, got {index!r}")
        if not 0 <= index < len(self._records):
            raise EcodeRuntimeError(
                f"input index {index} out of range "
                f"(have {len(self._records)} records)")
        return self._records[index]


class OutputArray:
    """Write-only sparse output buffer.

    Slots are filled by ``output[i] = record``; the final event payload
    is the filled slots in index order.  Records are stored as copies so
    subsequent field writes (``output[i].value = ...``) never alias the
    inputs.
    """

    MAX_SLOTS = 4096

    def __init__(self) -> None:
        self._slots: dict[int, MetricRecord] = {}

    def store(self, index: object, record: object) -> None:
        if not isinstance(index, int) or isinstance(index, bool):
            raise EcodeRuntimeError(
                f"output index must be an integer, got {index!r}")
        if index < 0 or index >= self.MAX_SLOTS:
            raise EcodeRuntimeError(
                f"output index {index} outside [0, {self.MAX_SLOTS})")
        if not isinstance(record, MetricRecord):
            raise EcodeRuntimeError(
                "only monitoring records can be stored in output[]")
        self._slots[index] = record.copy()

    def set_field(self, index: object, field: str, value: object) -> None:
        if not isinstance(index, int) or isinstance(index, bool):
            raise EcodeRuntimeError("output index must be an integer")
        if index not in self._slots:
            raise EcodeRuntimeError(
                f"output[{index}] written by field before being assigned "
                f"a record")
        if field not in RECORD_FIELDS:
            raise EcodeRuntimeError(f"unknown record field {field!r}")
        if not isinstance(value, (int, float)):
            raise EcodeRuntimeError("record fields are numeric")
        setattr(self._slots[index], field, float(value))

    def collect(self) -> list[MetricRecord]:
        """Filled slots, in ascending index order."""
        return [self._slots[i] for i in sorted(self._slots)]

    def __len__(self) -> int:
        return len(self._slots)


class ExecEnv:
    """Per-invocation execution services (arithmetic guards, limits,
    keyed-stream access and ``emit`` collection)."""

    #: Cap on ``emit()`` calls per invocation, mirroring
    #: :attr:`OutputArray.MAX_SLOTS`.
    MAX_EMITS = 4096

    def __init__(self, max_steps: int,
                 keyed: Optional[Sequence[KeyedSample]] = None) -> None:
        self.max_steps = max_steps
        self.steps = 0
        self._keyed: list[KeyedSample] = list(keyed or ())
        #: ``(key, value)`` pairs produced by ``emit()``, in call order.
        self.emitted: list[tuple[int, float]] = []

    def tick(self) -> None:
        """Loop-iteration guard injected into every loop body."""
        self.steps += 1
        if self.steps > self.max_steps:
            raise EcodeLimitError(
                f"filter exceeded its execution budget of "
                f"{self.max_steps} loop iterations")

    @staticmethod
    def idiv(a: int, b: int) -> int:
        """C-style integer division (truncation toward zero)."""
        if b == 0:
            raise EcodeRuntimeError("integer division by zero")
        return int(math.trunc(a / b))

    @staticmethod
    def imod(a: int, b: int) -> int:
        """C-style remainder (sign follows the dividend)."""
        if b == 0:
            raise EcodeRuntimeError("integer modulo by zero")
        return int(math.fmod(a, b))

    @staticmethod
    def fdiv(a: float, b: float) -> float:
        if b == 0:
            raise EcodeRuntimeError("division by zero")
        return a / b

    # -- keyed-stream builtins --------------------------------------------------

    def _row(self, name: str, index: object) -> KeyedSample:
        if not isinstance(index, int) or isinstance(index, bool):
            raise EcodeRuntimeError(
                f"{name}: index must be an integer, got {index!r}")
        if not 0 <= index < len(self._keyed):
            raise EcodeRuntimeError(
                f"{name}: index {index} out of range "
                f"(have {len(self._keyed)} keyed records)")
        return self._keyed[index]

    def nproc(self) -> int:
        return len(self._keyed)

    def proc_pid(self, index: object) -> int:
        return int(self._row("proc_pid", index)[0])

    def proc_cpu(self, index: object) -> float:
        return float(self._row("proc_cpu", index)[1])

    def proc_mem(self, index: object) -> float:
        return float(self._row("proc_mem", index)[2])

    def proc_io(self, index: object) -> float:
        return float(self._row("proc_io", index)[3])

    def emit(self, key: object, value: object) -> int:
        """Append a ``(key, value)`` summary pair; returns the count
        of pairs emitted so far."""
        if not isinstance(key, (int, float)):
            raise EcodeRuntimeError("emit: key must be numeric")
        if not isinstance(value, (int, float)):
            raise EcodeRuntimeError("emit: value must be numeric")
        if len(self.emitted) >= self.MAX_EMITS:
            raise EcodeRuntimeError(
                f"filter emitted more than {self.MAX_EMITS} pairs")
        self.emitted.append((int(key), float(value)))
        return len(self.emitted)


@dataclass
class FilterResult:
    """Outcome of running a compiled filter over a record set."""

    #: Records the filter placed in ``output[]``, in slot order.
    outputs: list[MetricRecord]
    #: Value of an explicit ``return`` statement (None if absent).
    returned: Optional[float]
    #: Loop iterations executed (observability/ablation hook).
    steps: int
    #: ``(key, value)`` pairs the filter produced via ``emit()`` — the
    #: top-K summary d-mon publishes instead of the keyed firehose.
    emitted: list[tuple[int, float]] = field(default_factory=list)
