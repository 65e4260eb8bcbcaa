"""The control-channel message.

dproc uses *two* channels (paper, §2): a monitoring channel for data
and a control channel for customization.  A control message carries
one command of the control-file grammar as text — a parameter setting
or an E-code filter source — to the one d-mon it addresses, which
parses and applies it (:mod:`repro.dproc.control_file`).  KECho
carries the text without reading it.

Every d-mon subscribes to the control channel and ignores messages not
addressed to it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ControlMessage", "control_message_size"]

#: Fixed framing overhead of a control message in bytes.
_HEADER_BYTES = 48


@dataclass(frozen=True)
class ControlMessage:
    """One control command from ``sender`` for ``target``'s d-mon.

    ``command`` is the command's normalized control-file text, e.g.
    ``"period cpu 2"`` or ``"filter * id=f1 { ... }"``.
    """

    sender: str
    target: str
    command: str

    def addressed_to(self, host: str) -> bool:
        return self.target == host


def control_message_size(msg: ControlMessage) -> float:
    """Encoded size of a control message in bytes."""
    return float(_HEADER_BYTES + len(msg.command.encode("utf-8")))
