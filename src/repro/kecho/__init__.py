"""KECho: kernel-level event channels (publish/subscribe substrate).

Reproduction of the KECho event-channel infrastructure the paper builds
dproc on: channels found/created via a user-level registry, direct
peer-to-peer kernel messaging, and per-submit cost accounting.
"""

from repro.kecho.channel import ChannelEndpoint, KechoBus, SubmitReceipt
from repro.kecho.control import (ClearParameter, ControlMessage,
                                 DeployFilter, RemoveFilter, SetParameter,
                                 control_message_size)
from repro.kecho.event import ChannelEvent
from repro.kecho.registry import ChannelInfo, ChannelRegistry

__all__ = [
    "ChannelEndpoint", "KechoBus", "SubmitReceipt",
    "ChannelEvent", "ChannelInfo", "ChannelRegistry",
    "ControlMessage", "SetParameter", "ClearParameter", "DeployFilter",
    "RemoveFilter", "control_message_size",
]
