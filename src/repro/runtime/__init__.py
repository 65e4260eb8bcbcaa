"""Backend-neutral runtime layer: protocols + the sim adapter.

See :mod:`repro.runtime.protocol` for the contract and
:mod:`repro.runtime.sim` / :mod:`repro.live` for the two backends.
"""

from repro.runtime.protocol import (Bus, Clock, Connection, Endpoint,
                                    NodeGroup, OnFail, Runtime,
                                    RuntimeNode, TaskHandle, Timer,
                                    Transport)
from repro.runtime.series import CounterTrace, EwmaLoad, WindowAverage
from repro.runtime.sim import SimRuntime

__all__ = [
    "Clock", "Timer", "OnFail", "TaskHandle", "Connection",
    "Transport", "RuntimeNode", "Endpoint", "Bus", "NodeGroup",
    "Runtime", "SimRuntime",
    "CounterTrace", "WindowAverage", "EwmaLoad",
]
