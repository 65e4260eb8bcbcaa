"""Hostile frames on a running live cluster's channel tags.

A raw socket writes one hostile frame and then a valid monitoring
frame, in one write, to a running d-mon's server.  Each hostile frame
is either refused by the decoder (``net.rx_decode_errors``) or handed
to a handler that counts it (``dmon.control_rejected``); the valid
frame behind it is delivered, and nothing reaches stderr or the log.
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
from repro.live.codec import (FLAG_TAG, KIND_CONTROL, MAGIC, encode_frame)

CONTROL_TAG = "kecho:" + CONTROL_CHANNEL
MONITOR_TAG = "kecho:" + MONITOR_CHANNEL
DEEP = "(" * 100 + "1" + ")" * 100


def _str(text: str) -> bytes:
    raw = text.encode()
    return struct.pack(">H", len(raw)) + raw


def _raw(kind: int, channel: str, body: bytes, tag: str = "") -> bytes:
    """A frame built by hand, as a peer that ignores the encoder
    could send it."""
    frame = (struct.pack(">HBB", MAGIC, kind, FLAG_TAG if tag else 0)
             + _str(channel) + (_str(tag) if tag else b"")
             + _str("rogue") + struct.pack(">dd", 0.0, 64.0) + body)
    return struct.pack(">I", len(frame)) + frame


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
                sock = socket.create_connection(target.node.stack.address)
                sock.sendall(frame(host) + _monitor(
                    MONITOR_TAG, MONITOR_CHANNEL, f"rogue-{name}",
                    float(i)))
                sockets.append(sock)

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
