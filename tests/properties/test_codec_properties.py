"""Property-based tests for the live wire codec's framing layer.

The invariant under test is the transport's whole correctness story:
any sequence of events, written back to back in runs any way the
sender likes and delivered in any chunking the kernel likes, decodes
to exactly the original events in order.  (The batching/backpressure
machinery only ever changes *grouping* and *chunking* — never
content — so this is the property that makes it safe.)
"""

from __future__ import annotations

import json
import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.api import Scenario  # noqa: E402
from repro.dproc import MetricId, RecordBatch  # noqa: E402
from repro.dproc.control_file import parse_command  # noqa: E402
from repro.dproc.dmon import CONTROL_CHANNEL  # noqa: E402
from repro.errors import ChannelError, DprocError  # noqa: E402
from repro.kecho.control import ControlMessage  # noqa: E402
from repro.kecho.event import ChannelEvent  # noqa: E402
from repro.live.codec import (KIND_CONTROL, MAGIC,  # noqa: E402
                              FrameDecoder, decode_frame, encode_batch,
                              encode_frame)

FAST = settings(max_examples=60, deadline=None)

_values = st.floats(min_value=-1e12, max_value=1e12,
                    allow_nan=False, width=64)


#: The tag every control message travels on.
CONTROL_TAG = "kecho:" + CONTROL_CHANNEL


def _tag(i: int, event: ChannelEvent) -> str:
    """Frame ``i``'s tag: control messages have one tag of their own."""
    return CONTROL_TAG if isinstance(event.payload, ControlMessage) \
        else f"t{i}"


@st.composite
def events(draw):
    """Monitor or control events."""
    if draw(st.booleans()):
        return draw(control_events())
    source = draw(st.text(min_size=1, max_size=8))
    channel = draw(st.text(min_size=1, max_size=12))
    ids = [MetricId(m) for m in draw(st.lists(
        st.sampled_from([int(m) for m in MetricId]),
        max_size=4, unique=True))]
    payload = RecordBatch(source, ids,
                          [draw(_values) for _ in ids],
                          [draw(_values) for _ in ids])
    if draw(st.booleans()):
        # Zero-row sections decode to absent sections by design,
        # so only a non-empty table is expected to round-trip.
        payload.proc_top = {
            pid: draw(_values)
            for pid in draw(st.lists(st.integers(0, 2**31),
                                     min_size=1, max_size=3,
                                     unique=True))}
    return ChannelEvent(channel=channel, source=source,
                        payload=payload, size=draw(_values),
                        submitted_at=draw(_values))


_any_f64 = st.floats(width=64)  # NaNs, infinities and -0.0 included
_names = st.text(min_size=1, max_size=8)


@st.composite
def monitor_cases(draw):
    """``(tag, event)`` pairs that land on either side of each flag:
    KECho's own tag or a foreign one, host equal to the source or not,
    one timestamp for the poll or one per record, keyed rows or none.
    """
    source = draw(_names)
    channel = draw(_names)
    mids = draw(st.lists(st.sampled_from(list(MetricId)), max_size=6,
                         unique=True))
    shape = draw(st.sampled_from(["poll", "equal", "each"]))
    if shape == "poll":
        ts = draw(_any_f64)
    elif shape == "equal":
        ts = [draw(_any_f64)] * len(mids)
    else:
        ts = [draw(_any_f64) for _ in mids]
    payload = RecordBatch(
        source if draw(st.booleans()) else draw(_names), mids,
        [draw(_any_f64) for _ in mids], ts)
    if draw(st.booleans()):
        payload.proc_top = draw(st.dictionaries(
            st.integers(0, 2**32 - 1), _values, min_size=1, max_size=3))
    if draw(st.booleans()):
        payload.procs = draw(st.dictionaries(
            st.integers(0, 2**32 - 1), st.tuples(_values, _values, _values),
            min_size=1, max_size=3))
    tag = "kecho:" + channel if draw(st.booleans()) else draw(_names)
    return tag, ChannelEvent(channel=channel, source=source,
                             payload=payload, size=draw(_values),
                             submitted_at=draw(_values))


def _bits(batch: RecordBatch) -> list:
    """The records in order, each float as its eight wire bytes — so
    -0.0 is not 0.0 and a NaN equals itself."""
    return [(metric, struct.pack(">d", value), struct.pack(">d", ts))
            for metric, value, ts in batch.records()]


def _assert_monitor_roundtrip(tag: str, event: ChannelEvent) -> None:
    (body,) = FrameDecoder().feed(encode_frame(tag, event))
    got_tag, decoded = decode_frame(body)
    assert got_tag == tag
    assert (decoded.channel, decoded.source, decoded.size,
            decoded.submitted_at) == (event.channel, event.source,
                                      event.size, event.submitted_at)
    assert _bits(decoded.payload) == _bits(event.payload)
    assert all(isinstance(m, MetricId) for m in decoded.payload.ids)
    assert (decoded.payload.host, decoded.payload.proc_top,
            decoded.payload.procs) == (event.payload.host,
                                       event.payload.proc_top,
                                       event.payload.procs)


@st.composite
def control_events(draw):
    """Control messages, the way d-mon ships them."""
    name = st.text(min_size=1, max_size=8)
    message = draw(st.builds(ControlMessage, sender=name, target=name,
                             command=st.text(max_size=24)))
    return ChannelEvent(channel=CONTROL_CHANNEL, source=message.sender,
                        payload=message, size=draw(_values),
                        submitted_at=draw(_values))


@st.composite
def coalesced_streams(draw):
    """Events written as one run, in a random chunking (a run is the
    frames back to back, so every grouping writes these bytes)."""
    evs = draw(st.lists(events(), min_size=1, max_size=12))
    wire = encode_batch([encode_frame(_tag(i, ev), ev)
                         for i, ev in enumerate(evs)])
    cuts = sorted(draw(st.lists(
        st.integers(1, max(1, len(wire) - 1)), max_size=8)))
    chunks, prev = [], 0
    for cut in cuts + [len(wire)]:
        if cut > prev:
            chunks.append(wire[prev:cut])
            prev = cut
    return evs, chunks


def _normalize(event: ChannelEvent):
    payload = event.payload
    if isinstance(payload, RecordBatch):
        payload = (payload.host, list(payload.records()),
                   payload.proc_top, payload.procs)
    return (event.channel, event.source, payload,
            event.size, event.submitted_at)


class TestCoalescedRoundTrip:
    @FAST
    @given(coalesced_streams())
    def test_any_grouping_any_chunking_roundtrips(self, case):
        evs, chunks = case
        decoder = FrameDecoder()
        bodies = []
        for chunk in chunks:
            bodies.extend(decoder.feed(chunk))
        decoder.finish()
        assert len(bodies) == len(evs)
        for i, (body, original) in enumerate(zip(bodies, evs)):
            tag, decoded = decode_frame(body)
            assert tag == _tag(i, original)
            assert _normalize(decoded) == _normalize(original)

    @FAST
    @given(coalesced_streams())
    def test_interrupted_stream_resumes_without_phantoms(self, case):
        """A cut mid-stream yields only genuine prefix frames, and
        feeding the remainder completes the run losslessly."""
        evs, chunks = case
        wire = b"".join(chunks)
        cut = len(wire) // 2
        decoder = FrameDecoder()
        bodies = decoder.feed(wire[:cut])
        assert len(bodies) <= len(evs)
        for body, original in zip(bodies, evs):
            _, decoded = decode_frame(body)
            assert _normalize(decoded) == _normalize(original)
        bodies.extend(decoder.feed(wire[cut:]))
        decoder.finish()
        assert len(bodies) == len(evs)

    @FAST
    @given(coalesced_streams())
    def test_eof_inside_a_frame_is_an_error(self, case):
        evs, chunks = case
        wire = b"".join(chunks)
        decoder = FrameDecoder()
        decoder.feed(wire[:len(wire) - 1])
        with pytest.raises(ChannelError):
            decoder.finish()


class TestMonitorFlags:
    """Whatever the encoder leaves out of a MONITOR frame, the decoder
    puts back: bit-exact floats, record order, every section."""

    @settings(max_examples=200, deadline=None)
    @given(monitor_cases())
    def test_either_side_of_each_flag_roundtrips(self, case):
        _assert_monitor_roundtrip(*case)

    @pytest.mark.parametrize("stamps", [
        [0.0, -0.0],
        [-0.0, -0.0],
        [float("nan"), float("nan")],
        [1.0, float("nan"), 1.0],
        [7.0, 7.0, 7.5],
        [3.0],
        [],
    ], ids=["zero-and-minus-zero", "minus-zero", "nan-twice",
            "nan-among-equals", "last-differs", "one-record",
            "zero-records"])
    @pytest.mark.parametrize("tag", ["kecho:dproc.monitor", "custom"])
    @pytest.mark.parametrize("host", ["maui", "etna"])
    def test_named_timestamp_cases(self, stamps, tag, host):
        ids = list(reversed(MetricId))[:len(stamps)]
        batch = RecordBatch(host, ids, [float(i) for i in range(len(ids))],
                            stamps)
        _assert_monitor_roundtrip(tag, ChannelEvent(
            channel="dproc.monitor", source="maui", size=64.0,
            submitted_at=7.0, payload=batch))

    def test_shared_timestamp_is_judged_on_bits_not_equality(self):
        """0.0 == -0.0, so an encoder comparing with ``==`` would fold
        the two into one timestamp and lose the sign."""
        def frame(stamps):
            return encode_frame("kecho:c", ChannelEvent(
                channel="c", source="s", size=1.0, submitted_at=0.0,
                payload=RecordBatch(
                    "s", (MetricId.LOADAVG, MetricId.FREEMEM), (1.0, 2.0),
                    stamps)))
        assert len(frame([0.0, -0.0])) == len(frame([0.0, 0.0])) + 8
        nan = float("nan")
        assert len(frame([nan, nan])) == len(frame([0.0, 0.0]))


#: A value cell: the +0.0 the bitmap leaves out, and what it must not
#: (-0.0, NaNs — one with a payload — subnormals, infinities), among
#: any other double.
_cells = st.one_of(
    st.just(0.0), st.just(-0.0), st.just(float("nan")),
    st.just(struct.unpack(">d", bytes.fromhex("7ff0000000000123"))[0]),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308 / 3]),
    st.just(float("inf")), st.just(float("-inf")), st.floats(width=64))


def _str_bytes(text: str) -> int:
    return 2 + len(text.encode())


@st.composite
def sparse_cases(draw):
    """``(tag, event)`` of any size and mix of cells, on d-mon's own
    channel or another, with or without each flag and section."""
    n = draw(st.integers(0, 300))
    mids = draw(st.lists(st.sampled_from(list(MetricId)), min_size=n,
                         max_size=n))
    values = draw(st.lists(_cells, min_size=n, max_size=n))
    if draw(st.booleans()):
        ts = draw(_any_f64)
    else:
        ts = draw(st.lists(_any_f64, min_size=n, max_size=n))
    source = draw(_names)
    host = source if draw(st.booleans()) else draw(_names)
    payload = RecordBatch(host, mids, values, ts)
    if draw(st.booleans()):
        payload.proc_top = draw(st.dictionaries(
            st.integers(0, 2**32 - 1), _values, min_size=1, max_size=4))
    if draw(st.booleans()):
        payload.procs = draw(st.dictionaries(
            st.integers(0, 2**32 - 1), st.tuples(_values, _values, _values),
            min_size=1, max_size=4))
    channel = "dproc.monitor" if draw(st.booleans()) else draw(_names)
    tag = "kecho:" + channel if draw(st.booleans()) else draw(_names)
    return tag, ChannelEvent(channel=channel, source=source,
                             payload=payload, size=draw(_values),
                             submitted_at=draw(_values))


def _sparse_size(tag: str, event: ChannelEvent) -> int:
    """The frame's length from what it says, by the codec's layout."""
    batch = event.payload
    n = len(batch.ids)
    zeros = sum(struct.pack(">d", v) == bytes(8) for v in batch.values)
    if isinstance(batch.ts, float):
        stamps = 1 if n else 0
    else:
        shared = n and len({struct.pack(">d", t) for t in batch.ts}) == 1
        stamps = 1 if shared else n
    size = 4 + 4 + _str_bytes(event.source) + 16 + 2 + n \
        + (n + 7) // 8 + 8 * (n - zeros) + 8 * stamps
    if event.channel != "dproc.monitor":
        size += _str_bytes(event.channel)
    if tag != "kecho:" + event.channel:
        size += _str_bytes(tag)
    if batch.host != event.source:
        size += _str_bytes(batch.host)
    if batch.proc_top or batch.procs:
        size += 2 + 12 * len(batch.proc_top or {}) \
            + 2 + 28 * len(batch.procs or {})
    return size


class TestSparseLayout:
    """Any batch comes back f64-exact, every +0.0 cell costs its bitmap
    bit only, and the frame is exactly as long as the layout says."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_cases())
    def test_any_batch_roundtrips_at_the_formula_size(self, case):
        tag, event = case
        assert len(encode_frame(tag, event)) == _sparse_size(tag, event)
        _assert_monitor_roundtrip(tag, event)


class TestMalformedFrames:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(events(), control_events()), st.data())
    def test_corrupt_body_decodes_or_raises_channel_error(self, event,
                                                          data):
        """One overwritten byte or a truncation anywhere in a valid
        frame body: ``decode_frame`` returns an event or raises
        :class:`ChannelError` — never a bare ValueError/TypeError that
        would kill the transport's reader task."""
        body = encode_frame(_tag(0, event), event)[4:]
        at = data.draw(st.integers(0, len(body) - 1))
        if data.draw(st.booleans()):
            body = body[:at]
        else:
            body = body[:at] + bytes([data.draw(st.integers(0, 255))]) \
                + body[at + 1:]
        try:
            _, decoded = decode_frame(body)
        except ChannelError:
            return
        assert isinstance(decoded, ChannelEvent)


def _control_target():
    """A fresh d-mon: a two-node simulated cluster's second node."""
    sc = Scenario(nodes=2, seed=1)
    sc.build()
    return sc.dprocs[sc.nodes.names[1]].dmon


def _control_frame(doc: dict) -> bytes:
    """A CONTROL frame body on the control tag (implied: no channel,
    no flag) around any JSON."""
    raw = json.dumps(doc).encode()
    return (struct.pack(">HBB", MAGIC, KIND_CONTROL, 0)
            + struct.pack(">H5sdd", 5, b"rogue", 0.0, 64.0)
            + struct.pack(">I", len(raw)) + raw)


_json_values = st.one_of(
    st.sampled_from(["alan", "maui", "period cpu 2", "period cpu inf",
                     "threshold * change 15", "clear mem period",
                     "filter cpu { return 1; }", "unfilter f1",
                     "filter cpu { int i = ; }", "period nosuch 1"]),
    st.text(max_size=12), st.integers(), st.none(), st.booleans(),
    st.lists(st.text(max_size=3), max_size=2))

#: Strings a CONTROL body's fields mean something as: the two hosts,
#: and commands that apply, fail to parse or fail to apply.
_hosts = st.sampled_from(["alan", "maui"])
_commands = st.sampled_from([
    "period cpu 2", "period cpu inf", "threshold * change 15",
    "threshold loadavg above 0.8", "clear mem period",
    "filter cpu { return 1; }", "filter * id=f1 { return 1; }",
    "unfilter f1", "filter cpu { int i = ; }", "period nosuch 1",
    "warp cpu 9", "period cpu 2\nperiod mem 3"])
_strings = st.one_of(_hosts, _commands, st.text(max_size=12))

#: How a body is spoiled, if at all: most bodies are three strings,
#: so most examples reach d-mon.
_FIELDS = ("sender", "target", "command")
_spoils = st.sampled_from(
    [None] * 12 + [("drop", f) for f in _FIELDS]
    + [("junk", f) for f in (*_FIELDS, "type")])


def _control_state(dmon) -> tuple:
    """What a control command can change on a d-mon."""
    return ({metric: (policy.period, len(policy.thresholds))
             for metric, policy in dmon.policies.items()},
            sorted((f.scope, f.source) for f in dmon.filters.deployed()))


class TestControlBodies:
    def test_any_json_object_is_refused_applied_or_counted(self):
        """Whatever JSON object a peer puts in a CONTROL body, the
        decoder raises ChannelError, or d-mon applies the message (its
        state then equals a twin's that applied the same command) or
        counts it in ``dmon.control_rejected`` — nothing raises out of
        d-mon.  At least half of the examples decode, so the d-mon half
        of the property is exercised."""
        seen = {"examples": 0, "decoded": 0, "applied": 0, "counted": 0}

        @settings(max_examples=200, deadline=None, database=None)
        @given(st.fixed_dictionaries(
            {"sender": _strings, "target": st.one_of(st.just("maui"),
                                                     _strings),
             "command": st.one_of(_commands, _strings)}),
            _spoils, _json_values)
        def check(doc, spoil, junk):
            seen["examples"] += 1
            dmon = _control_target()  # maui; alan is the other node
            if spoil is not None:
                how, field = spoil
                if how == "drop":
                    del doc[field]
                else:
                    doc[field] = junk
            try:
                _tag, event = decode_frame(_control_frame(doc))
            except ChannelError:
                assert doc.keys() != set(_FIELDS) \
                    or not all(type(v) is str for v in doc.values())
                return
            seen["decoded"] += 1
            msg = event.payload
            assert msg == ControlMessage(**doc)
            telemetry = dmon.node.telemetry
            before = telemetry.value("dmon.control_rejected")
            dmon._on_control_event(event, None)
            counted = telemetry.value("dmon.control_rejected") - before
            if msg.target != dmon.node.name:
                assert counted == 0  # not this node's message
                return
            twin = _control_target()
            try:
                twin.apply_control(parse_command(msg.command))
            except DprocError:
                assert counted == 1
                seen["counted"] += 1
            else:
                assert counted == 0
                assert _control_state(dmon) == _control_state(twin)
                seen["applied"] += 1

        check()
        assert seen["decoded"] * 2 >= seen["examples"], seen
        assert seen["applied"] and seen["counted"], seen

    def test_body_naming_the_target_as_its_sender_is_handled(self):
        """A peer that puts the target's own name in ``sender`` has its
        command applied, or counted when it cannot be applied."""
        dmon = _control_target()
        telemetry = dmon.node.telemetry
        for command in ("period cpu 2", "period nosuch 1"):
            _tag, event = decode_frame(_control_frame(
                {"sender": "maui", "target": "maui", "command": command}))
            dmon._on_control_event(event, None)
        assert dmon.policies[MetricId.LOADAVG].period == 2.0
        assert telemetry.value("dmon.control_rejected") == 1
