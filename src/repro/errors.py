"""Exception hierarchy for the dproc reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "SchedulingError",
    "InterruptError",
    "NetworkError",
    "RoutingError",
    "TransportError",
    "EcodeError",
    "EcodeSyntaxError",
    "EcodeTypeError",
    "EcodeRuntimeError",
    "EcodeLimitError",
    "ChannelError",
    "DprocError",
    "ProcfsError",
    "ControlSyntaxError",
    "UnknownMetricError",
    "FilterDeploymentError",
    "TelemetryError",
    "TracingError",
]


class ReproError(Exception):
    """Base class for every error raised by this library."""


# --- simulator -----------------------------------------------------------

class SimulationError(ReproError):
    """Generic failure inside the discrete-event simulator."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a finished simulator."""


class InterruptError(SimulationError):
    """Raised *inside* a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


# --- network -------------------------------------------------------------

class NetworkError(SimulationError):
    """Failure in the simulated network fabric."""


class RoutingError(NetworkError):
    """No route exists between two simulated hosts."""


class TransportError(NetworkError):
    """Transport-level failure (e.g. sending on a closed connection)."""


class FaultInjectionError(SimulationError):
    """Invalid fault-injection request (bad probability, unknown host)."""


# --- E-code --------------------------------------------------------------

class EcodeError(ReproError):
    """Base class for E-code language errors."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(message + location)
        self.message = message
        self.line = line
        self.column = column


class EcodeSyntaxError(EcodeError):
    """Lexical or syntactic error in E-code source."""


class EcodeTypeError(EcodeError):
    """Semantic/type error in E-code source."""


class EcodeRuntimeError(EcodeError):
    """Error raised while executing a compiled E-code filter."""


class EcodeLimitError(EcodeRuntimeError):
    """A compiled filter exceeded its execution budget (loop bound)."""


# --- KECho ---------------------------------------------------------------

class ChannelError(ReproError):
    """Failure in the KECho event channel layer."""


# --- dproc ---------------------------------------------------------------

class DprocError(ReproError):
    """Failure in the dproc monitoring toolkit."""


class ProcfsError(DprocError):
    """Bad path or operation on the pseudo /proc filesystem."""


class ControlSyntaxError(DprocError):
    """Malformed command written to a dproc control file."""


class UnknownMetricError(DprocError):
    """A metric name was not recognised by the metric registry."""


class FilterDeploymentError(DprocError):
    """A dynamic filter failed to compile or deploy at the target host."""


# --- telemetry ---------------------------------------------------------------

class TelemetryError(ReproError):
    """Misuse of the self-telemetry registry (e.g. kind mismatch)."""


class TracingError(ReproError):
    """Misuse of the causal-tracing collector (duplicate trace id,
    double-finished span, invalid sampling configuration)."""
