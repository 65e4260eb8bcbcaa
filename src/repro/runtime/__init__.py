"""Backend-neutral runtime layer: the protocols and the windowed series.

See :mod:`repro.runtime.protocol` for the contract and
:mod:`repro.runtime.sim` / :mod:`repro.live` for the two backends.
Neither backend is imported here: ``repro.runtime.sim`` loads d-mon
and KECho, which import :mod:`repro.runtime.protocol` through this
package, so importing it here would close an import cycle.
"""

from repro.runtime.protocol import (Bus, Clock, Connection, Endpoint,
                                    NodeGroup, OnFail, Runtime,
                                    RuntimeNode, TaskHandle, Timer,
                                    Transport)
from repro.runtime.series import CounterTrace, EwmaLoad, WindowAverage

__all__ = [
    "Clock", "Timer", "OnFail", "TaskHandle", "Connection",
    "Transport", "RuntimeNode", "Endpoint", "Bus", "NodeGroup",
    "Runtime",
    "CounterTrace", "WindowAverage", "EwmaLoad",
]
