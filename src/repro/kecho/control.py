"""Control-channel message types.

dproc uses *two* channels (paper, §2): a monitoring channel for data
and a control channel for customization.  Control messages carry
parameter changes and dynamic filter strings to remote d-mon modules.

Every message is addressed to one host; every d-mon subscribes to the
control channel and ignores messages not addressed to it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ControlMessage", "SetParameter", "ClearParameter",
           "DeployFilter", "RemoveFilter", "control_message_size"]

#: Fixed framing overhead of a control message in bytes.
_HEADER_BYTES = 48


@dataclass(frozen=True)
class ControlMessage:
    """Base class: ``target`` is the one host the message is for."""

    sender: str
    target: str

    def addressed_to(self, host: str) -> bool:
        return self.target == host


@dataclass(frozen=True)
class SetParameter(ControlMessage):
    """Set a monitoring parameter at the target d-mon.

    ``metric`` may name one resource ("cpu", "net", ...) or "*" for all
    resources together, as the paper's control files allow.
    """

    metric: str = "*"
    parameter: str = "period"   # 'period' | 'threshold'
    spec: str = ""              # textual parameter spec

    def body_text(self) -> str:
        return f"{self.metric} {self.parameter} {self.spec}"


@dataclass(frozen=True)
class ClearParameter(ControlMessage):
    """Remove a previously set parameter."""

    metric: str = "*"
    parameter: str = "period"

    def body_text(self) -> str:
        return f"{self.metric} {self.parameter}"


@dataclass(frozen=True)
class DeployFilter(ControlMessage):
    """Ship an E-code filter source string for dynamic compilation."""

    metric: str = "*"
    source: str = ""
    filter_id: str = ""

    def body_text(self) -> str:
        return self.source


@dataclass(frozen=True)
class RemoveFilter(ControlMessage):
    """Tear down a previously deployed filter."""

    filter_id: str = ""

    def body_text(self) -> str:
        return self.filter_id


def control_message_size(msg: ControlMessage) -> float:
    """Encoded size of a control message in bytes."""
    return float(_HEADER_BYTES + len(msg.body_text().encode("utf-8")))
