"""Hostile frames on a running live cluster's channel tags.

A raw socket writes one hostile frame and then a valid monitoring
frame, in one write, to a running d-mon's server.  Each hostile frame
is either refused by the decoder (``net.rx_decode_errors``) or handed
to a handler that counts it (``dmon.control_rejected``); the valid
frame behind it is delivered, and nothing reaches stderr or the log.
A frame without the codec's magic ends its connection, so the valid
frame behind it goes on a second one.
"""

from __future__ import annotations

import json
import logging
import socket
import struct

from repro.api import Scenario
from repro.dproc import DMonConfig, MetricId, RecordBatch
from repro.dproc.dmon import CONTROL_CHANNEL, MONITOR_CHANNEL
from repro.kecho.event import ChannelEvent
from repro.live.codec import (FLAG_CHANNEL, FLAG_TAG, KIND_CONTROL,
                              KIND_MONITOR, MAGIC, encode_frame)

CONTROL_TAG = "kecho:" + CONTROL_CHANNEL
MONITOR_TAG = "kecho:" + MONITOR_CHANNEL
DEEP = "(" * 100 + "1" + ")" * 100


def _str(text: str) -> bytes:
    raw = text.encode()
    return struct.pack(">H", len(raw)) + raw


#: The channel a frame of each kind names without carrying it.
OWN_CHANNELS = {KIND_MONITOR: MONITOR_CHANNEL, KIND_CONTROL: CONTROL_CHANNEL}


def _prefixed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def _raw(kind: int, channel: str, body: bytes, tag: str = "",
         carry_channel: bool = False) -> bytes:
    """A frame built by hand, as a peer that ignores the encoder
    could send it: the channel is carried when it is not the kind's
    own, or when asked."""
    if channel != OWN_CHANNELS.get(kind):
        carry_channel = True
    flags = (FLAG_TAG if tag else 0) | (FLAG_CHANNEL if carry_channel
                                        else 0)
    return _prefixed(
        struct.pack(">HBB", MAGIC, kind, flags)
        + (_str(channel) if carry_channel else b"")
        + (_str(tag) if tag else b"")
        + _str("rogue") + struct.pack(">dd", 0.0, 64.0) + body)


def _json(doc) -> bytes:
    raw = json.dumps(doc).encode()
    return struct.pack(">I", len(raw)) + raw


def _control(target: str, command: str) -> bytes:
    return _raw(KIND_CONTROL, CONTROL_CHANNEL, _json(
        {"sender": "rogue", "target": target, "command": command}))


def _monitor(tag: str, channel: str, host: str, value: float) -> bytes:
    batch = RecordBatch(host, (MetricId.LOADAVG,), (value,), 0.25)
    return encode_frame(tag, ChannelEvent(channel, host, batch, 64.0,
                                          0.25))


def _monitor_body() -> bytes:
    """A valid two-record MONITOR frame from ``rogue`` without its
    length prefix."""
    batch = RecordBatch("rogue", (MetricId.LOADAVG, MetricId.FREEMEM),
                        (1.0, 2.0), 0.25)
    return encode_frame(MONITOR_TAG, ChannelEvent(
        MONITOR_CHANNEL, "rogue", batch, 64.0, 0.25))[4:]


#: Where ``_monitor_body``'s id column starts: head, "rogue", two f64
#: and the record count.
AT_IDS = 4 + 7 + 16 + 2


def _edited(at: int, data: bytes, cut: int = 0) -> bytes:
    """``_monitor_body`` with ``data`` written at ``at`` over ``cut``
    bytes, length prefix recomputed."""
    body = _monitor_body()
    return _prefixed(body[:at] + data + body[at + cut:])


#: name -> (hostile frame for a target host, the counter it moves)
HOSTILE = {
    # The old per-class control bodies, with a field of the wrong
    # type: they raised AttributeError/TypeError inside d-mon.
    "int_metric": (lambda t: _raw(KIND_CONTROL, CONTROL_CHANNEL, _json(
        {"type": "SetParameter", "sender": "rogue", "target": t,
         "metric": 5, "parameter": "period", "spec": "1"})),
        "net.rx_decode_errors"),
    "null_spec": (lambda t: _raw(KIND_CONTROL, CONTROL_CHANNEL, _json(
        {"type": "SetParameter", "sender": "rogue", "target": t,
         "metric": "cpu", "parameter": "threshold", "spec": None})),
        "net.rx_decode_errors"),
    "command_not_a_string": (lambda t: _raw(
        KIND_CONTROL, CONTROL_CHANNEL,
        _json({"sender": "rogue", "target": t, "command": ["period"]})),
        "net.rx_decode_errors"),
    # The deleted JSON kind, on the control tag.
    "json_kind": (lambda t: _raw(3, CONTROL_CHANNEL, _json({"i": 1})),
                  "net.rx_decode_errors"),
    # A control message on the monitoring tag, by channel or by tag.
    "control_on_monitor_channel": (lambda t: _raw(
        KIND_CONTROL, MONITOR_CHANNEL,
        _json({"sender": "rogue", "target": t, "command": "unfilter x"})),
        "net.rx_decode_errors"),
    "control_on_monitor_tag": (lambda t: _raw(
        KIND_CONTROL, CONTROL_CHANNEL,
        _json({"sender": "rogue", "target": t, "command": "unfilter x"}),
        tag=MONITOR_TAG), "net.rx_decode_errors"),
    # Sparse MONITOR frames whose bytes disagree with their count and
    # bitmap, frames with bytes past their last field, and a frame of
    # the previous layout (refused as bad magic: it ends its
    # connection).
    "bitmap_past_the_records": (lambda t: _edited(AT_IDS + 2, b"\x04", 1),
                                "net.rx_decode_errors"),
    "value_column_short": (lambda t: _edited(AT_IDS + 3 + 8, b"", 8),
                           "net.rx_decode_errors"),
    "metric_id_20": (lambda t: _edited(AT_IDS + 1, bytes([20]), 1),
                     "net.rx_decode_errors"),
    "monitor_trailing_bytes": (lambda t: _prefixed(
        _monitor_body() + b"\x00" * 4 + b"\x07"), "net.rx_decode_errors"),
    "control_trailing_bytes": (lambda t: _prefixed(
        _control(t, "period cpu 1")[4:] + b"xyz"), "net.rx_decode_errors"),
    "channel_on_control": (lambda t: _raw(
        KIND_CONTROL, CONTROL_CHANNEL,
        _json({"sender": "rogue", "target": t, "command": "period cpu 1"}),
        carry_channel=True), "net.rx_decode_errors"),
    "previous_magic": (lambda t: _edited(0, struct.pack(">H", 0xEC06), 2),
                       "net.rx_decode_errors"),
    # Frames that decode and reach d-mon, which counts them.
    "monitor_on_control_tag": (lambda t: _monitor(
        CONTROL_TAG, CONTROL_CHANNEL, "rogue", 1.0),
        "dmon.control_rejected"),
    "infinite_period": (lambda t: _control(t, "period cpu inf"),
                        "dmon.control_rejected"),
    "two_commands": (lambda t: _control(t, "period cpu 1\nperiod mem 1"),
                     "dmon.control_rejected"),
    "deep_filter": (lambda t: _control(
        t, f"filter cpu id=deep {{ return {DEEP}; }}"),
        "dmon.control_rejected"),
    "loops_past_the_compiler_limit": (lambda t: _control(
        t, "filter cpu id=loops { int i = 0; " + "while (i) { " * 21
        + "}" * 21 + " }"), "dmon.control_rejected"),
}

COUNTERS = ("net.rx_decode_errors", "dmon.control_rejected")

#: Hostile frames after which the stack hangs up on the sender.
HANGS_UP = {"previous_magic"}


def test_hostile_frames_are_counted_and_the_next_frame_delivered(
        capfd, caplog):
    names = sorted(HOSTILE)
    sockets = []

    def rogue(sc: Scenario) -> None:
        target = sc.dprocs[sc.nodes.names[1]]

        def attack():
            yield target.node.env.timeout(0.5)
            host = target.node.name
            for i, name in enumerate(names):
                frame, _counter = HOSTILE[name]
                good = _monitor(MONITOR_TAG, MONITOR_CHANNEL,
                                f"rogue-{name}", float(i))
                sock = socket.create_connection(target.node.stack.address)
                sockets.append(sock)
                if name in HANGS_UP:
                    sock.sendall(frame(host))
                    sock = socket.create_connection(
                        target.node.stack.address)
                    sockets.append(sock)
                    sock.sendall(good)
                else:
                    sock.sendall(frame(host) + good)

        target.node.spawn(attack(), name="rogue")

    caplog.set_level(logging.WARNING)
    sc = Scenario(nodes=2, seed=1, backend="live",
                  dmon=DMonConfig(poll_interval=0.2))
    try:
        sc.with_setup(rogue).run(1.5)
    finally:
        for sock in sockets:
            sock.close()
    target = sc.dprocs[sc.nodes.names[1]]
    dmon = target.dmon
    # Every valid frame behind a hostile one was delivered.
    assert {name: dmon.remote_value(f"rogue-{name}", MetricId.LOADAVG)
            .value for name in names} \
        == {name: float(i) for i, name in enumerate(names)}
    telemetry = target.node.telemetry
    expected = {counter: float(sum(HOSTILE[name][1] == counter
                                   for name in names))
                for counter in COUNTERS}
    assert {c: telemetry.value(c) for c in COUNTERS} == expected
    # Nothing applied: no filter, no period.
    assert not dmon.filters.deployed()
    assert dmon.policies[MetricId.LOADAVG].period is None
    # The other node keeps hearing the target.
    other = sc.dprocs[sc.nodes.names[0]].dmon
    assert other.peer_state(target.node.name) == "fresh"
    out, err = capfd.readouterr()
    assert err == ""
    assert [r.getMessage() for r in caplog.records] == []
