"""KECho: kernel-level event channels (publish/subscribe substrate).

Reproduction of the KECho event-channel infrastructure the paper builds
dproc on: channels found/created through the bus's directory, direct
peer-to-peer kernel messaging, and per-submit cost accounting.
"""

from repro.kecho.channel import ChannelEndpoint, KechoBus, SubmitReceipt
from repro.kecho.control import ControlMessage, control_message_size
from repro.kecho.event import ChannelEvent

__all__ = [
    "ChannelEndpoint", "KechoBus", "SubmitReceipt",
    "ChannelEvent",
    "ControlMessage", "control_message_size",
]
