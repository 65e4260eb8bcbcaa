"""Wire codec: frame round-trips and the incremental decoder."""

from __future__ import annotations

import struct

import pytest

from repro.dproc import (MODULE_METRICS, DMon, MetricId,
                         MonitoringModule, RecordBatch)
from repro.errors import ChannelError
from repro.kecho import KechoBus
from repro.kecho.control import ControlMessage
from repro.kecho.event import ChannelEvent
from repro.live.codec import (FrameDecoder, MAGIC, MAX_FRAME_BYTES,
                              decode_frame, encode_batch,
                              encode_frame)


def unknown_metric_frames() -> tuple[bytes, bytes]:
    """A valid one-record MONITOR frame (length prefix included) and
    the same frame with the record's u16 metric id overwritten by one
    no :class:`MetricId` has."""
    good = encode_frame("t", ChannelEvent(
        channel="c", source="s", size=32.0, submitted_at=0.0,
        payload=RecordBatch("s", (MetricId.LOADAVG,), (1.0,), 0.0)))
    # The frame ends with the record's three columns: one u16 id, one
    # f64 value and the poll's f64 timestamp.
    at = len(good) - 18
    assert good[at:at + 2] == struct.pack(">H", MetricId.LOADAVG)
    return good, good[:at] + struct.pack(">H", 9999) + good[at + 2:]


def _numbered(i: int) -> ChannelEvent:
    """A one-record frame's event whose value is ``i``."""
    return ChannelEvent(
        channel="c", source="s", size=1.0, submitted_at=float(i),
        payload=RecordBatch("s", (MetricId.LOADAVG,), (float(i),), 0.0))


def _number(body: bytes) -> int:
    return int(decode_frame(body)[1].payload.values[0])


def _roundtrip(tag: str, event: ChannelEvent):
    frame = encode_frame(tag, event)
    bodies = FrameDecoder().feed(frame)
    assert len(bodies) == 1
    return decode_frame(bodies[0])


def _content(batch: RecordBatch) -> tuple:
    """Everything a batch says, comparable with ``==``."""
    return (batch.host, list(batch.records()), batch.proc_top,
            batch.procs)


class TestRoundTrip:
    def test_monitor_event(self):
        event = ChannelEvent(
            channel="dproc.monitor", source="maui",
            payload=RecordBatch("maui",
                                [MetricId.LOADAVG, MetricId.FREEMEM],
                                [1.5, 64e6], 2.0),
            size=88.0, submitted_at=2.0)
        tag, decoded = _roundtrip("kecho:dproc.monitor", event)
        assert tag == "kecho:dproc.monitor"
        assert decoded.channel == event.channel
        assert decoded.source == "maui"
        assert decoded.payload.host == "maui"
        assert list(decoded.payload.records()) == [
            (MetricId.LOADAVG, 1.5, 2.0), (MetricId.FREEMEM, 64e6, 2.0)]
        assert all(isinstance(m, MetricId) for m in decoded.payload.ids)
        # One timestamp on the wire comes back as one timestamp.
        assert decoded.payload.ts == 2.0

    def test_control_event(self):
        msg = ControlMessage("alan", "maui", "period cpu 2")
        event = ChannelEvent(channel="dproc.control", source="alan",
                             payload=msg, size=32.0, submitted_at=0.5)
        _, decoded = _roundtrip("kecho:dproc.control", event)
        assert decoded.payload == msg

    def test_filter_deploy_event(self):
        msg = ControlMessage(
            "alan", "maui",
            "filter * id=f1 { output[0] = input[LOADAVG]; }\n# ü\n")
        event = ChannelEvent(channel="dproc.control", source="alan",
                             payload=msg, size=64.0, submitted_at=1.0)
        _, decoded = _roundtrip("kecho:dproc.control", event)
        assert decoded.payload == msg

    def test_unencodable_payload_rejected(self):
        """A live payload is a record batch or a control message: a
        dict or any other object is refused, and so is a control
        message anywhere but the control channel's own tag."""
        msg = ControlMessage("alan", "maui", "unfilter f1")
        for payload, channel, tag in [
                (object(), "app", "custom:app"),
                ({"k": [1, 2]}, "app", "kecho:app"),
                (msg, "app", "kecho:app"),
                (msg, "dproc.control", "custom:dproc.control"),
                (ControlMessage("alan", "maui", None),
                 "dproc.control", "kecho:dproc.control")]:
            event = ChannelEvent(channel=channel, source="alan",
                                 payload=payload, size=1.0,
                                 submitted_at=0.0)
            with pytest.raises(ChannelError):
                encode_frame(tag, event)

    def test_control_frame_off_its_tag_is_refused(self):
        """A CONTROL frame decodes on the control channel's own tag
        only, so no other handler is handed a control message."""
        body = FrameDecoder().feed(encode_frame(
            "kecho:dproc.control", ChannelEvent(
                channel="dproc.control", source="alan", size=1.0,
                submitted_at=0.0,
                payload=ControlMessage("alan", "maui", "unfilter f1"))))[0]
        channel = struct.pack(">H", 13) + b"dproc.control"
        assert body[4:19] == channel
        for head in (struct.pack(">H", 13) + b"dproc.monitor",
                     struct.pack(">H", 3) + b"app"):
            with pytest.raises(ChannelError, match="control tag"):
                decode_frame(body[:4] + head + body[19:])
        tagged = body[:3] + bytes([1]) + channel + struct.pack(
            ">H", 3) + b"tag" + body[19:]
        with pytest.raises(ChannelError, match="control tag"):
            decode_frame(tagged)


def _dmon_event(n: int) -> ChannelEvent:
    """What d-mon publishes for one poll of ``n`` metrics: one
    timestamp, host = source."""
    ids = list(MetricId)[:n]
    assert len(ids) == n
    return ChannelEvent(channel="dproc.monitor", source="node3",
                        payload=RecordBatch(
                            "node3", ids, [float(i) for i in range(n)],
                            12.5),
                        size=40.0 + 12.0 * n, submitted_at=12.5)


class TestWireBudget:
    """The bytes a d-mon poll costs on the wire, so a format
    regression fails here and not only in the benchmark."""

    @pytest.mark.parametrize("n, size", [(1, 66), (4, 96), (13, 186),
                                         (20, 256)])
    def test_dmon_frame_is_56_plus_10_per_record(self, n, size):
        """13 records is the default module set: 186 bytes."""
        frame = encode_frame("kecho:dproc.monitor", _dmon_event(n))
        assert len(frame) == size == 56 + 10 * n
        tag, decoded = decode_frame(frame[4:])
        assert tag == "kecho:dproc.monitor"
        assert _content(decoded.payload) == _content(
            _dmon_event(n).payload)

    def test_each_redundancy_costs_its_bytes_only_when_present(self):
        event = _dmon_event(13)
        base = len(encode_frame("kecho:dproc.monitor", event))
        assert len(encode_frame("custom", event)) == base + 2 + 6
        event.payload.host = "other"
        assert len(encode_frame("kecho:dproc.monitor",
                                event)) == base + 2 + 5
        event = _dmon_event(13)
        event.payload.values[0] = 0.0
        event.payload.ts = (13.0,) + (12.5,) * 12
        assert len(encode_frame("kecho:dproc.monitor",
                                event)) == base + 12 * 8

    def test_previous_magic_is_refused(self):
        body = encode_frame("kecho:dproc.monitor", _dmon_event(1))[4:]
        assert body[:2] == struct.pack(">H", MAGIC)
        with pytest.raises(ChannelError, match="magic"):
            decode_frame(struct.pack(">H", 0xEC05) + body[2:])


#: The frame a default d-mon poll of 13 records sends from ``alan`` at
#: t = 12.5 s, record i carrying 0.25 * (i + 1); captured from the
#: encoder of the ``{metric: (value, ts)}`` payload this batch replaced.
DEFAULT_POLL_FRAME = (
    "000000b5ec060100000d6470726f632e6d6f6e69746f720004616c616e4029"
    "0000000000004068800000000000000d000000010002000600070004000500"
    "080009000b000d0003000a3fd00000000000003fe00000000000003fe80000"
    "000000003ff00000000000003ff40000000000003ff80000000000003ffc00"
    "000000000040000000000000004002000000000000400400000000000040060"
    "000000000004008000000000000400a0000000000004029000000000000")

#: A frame that sets HOST and TS and carries both keyed sections
#: (NaN and -0.0 among the values), from the same encoder.
FLAGGED_FRAME = (
    "000000a0ec060106000d6470726f632e6d6f6e69746f72000572656c617940"
    "10000000000000405600000000000000046d61756900030000000100053ff8"
    "00000000000080000000000000007ff8000000000000400000000000000040"
    "08000000000000400800000000000000020000006440080000000000000000"
    "006540040000000000000001000003e83fd0000000000000413e8480000000"
    "00403e000000000000")


class _Fixed(MonitoringModule):
    """A default module's metrics with fixed values."""

    def __init__(self, node, name: str, first: int) -> None:
        super().__init__(node)
        self.name = name
        self._values = [0.25 * (first + i + 1)
                        for i in range(len(MODULE_METRICS[name]))]

    def metrics(self):
        return MODULE_METRICS[self.name]

    def collect(self, now):
        return self._values


class TestWireFence:
    """Bytes on the wire pinned across the change to the batch."""

    def test_default_poll_frame_is_byte_identical(self, env, cluster3):
        dmon = DMon(cluster3["alan"], KechoBus())
        first = 0
        for name in ("cpu", "mem", "disk", "net", "pmc"):
            dmon.register_service(_Fixed(dmon.node, name, first))
            first += len(MODULE_METRICS[name])
        env.run(until=12.5)
        dmon.start()
        sent = []
        submit = dmon._monitor_ep.submit

        def capture(*args, **kwargs):
            receipt = submit(*args, **kwargs)
            sent.append(receipt.event)
            return receipt

        dmon._monitor_ep.submit = capture
        dmon.poll_once()
        (event,) = sent
        assert len(event.payload) == 13
        frame = encode_frame("kecho:dproc.monitor", event)
        assert frame.hex() == DEFAULT_POLL_FRAME

    def test_default_poll_frame_decodes_to_its_records(self):
        tag, event = decode_frame(bytes.fromhex(DEFAULT_POLL_FRAME)[4:])
        assert tag == "kecho:dproc.monitor"
        assert (event.source, event.submitted_at, event.size) == (
            "alan", 12.5, 196.0)
        ids = [m for name in ("cpu", "mem", "disk", "net", "pmc")
               for m in MODULE_METRICS[name]]
        assert list(event.payload.records()) == [
            (m, 0.25 * (i + 1), 12.5) for i, m in enumerate(ids)]

    def test_flagged_frame_decodes_to_its_records(self):
        tag, event = decode_frame(bytes.fromhex(FLAGGED_FRAME)[4:])
        batch = event.payload
        assert (tag, event.source, batch.host) == (
            "kecho:dproc.monitor", "relay", "maui")
        assert [(m, struct.pack(">d", v), ts)
                for m, v, ts in batch.records()] == [
            (MetricId.LOADAVG, struct.pack(">d", 1.5), 2.0),
            (MetricId.FREEMEM, struct.pack(">d", -0.0), 3.0),
            (MetricId.NET_RTT, struct.pack(">d", float("nan")), 3.0)]
        assert batch.proc_top == {100: 3.0, 101: 2.5}
        assert batch.procs == {1000: (0.25, 2e6, 30.0)}
        assert encode_frame(tag, event).hex() == FLAGGED_FRAME


class TestProcSections:
    """Optional keyed-stream sections on MONITOR frames."""

    def _monitor(self, batch: RecordBatch) -> ChannelEvent:
        return ChannelEvent(channel="dproc.monitor", source="maui",
                            payload=batch, size=88.0,
                            submitted_at=2.0)

    @staticmethod
    def _batch(**sections) -> RecordBatch:
        return RecordBatch("maui", (MetricId.LOADAVG,), (1.5,), 2.0,
                           **sections)

    def test_top_pairs_roundtrip(self):
        _, decoded = _roundtrip(
            "kecho:dproc.monitor",
            self._monitor(self._batch(proc_top={101: 2.5, 100: 3.0})))
        assert decoded.payload.proc_top == {101: 2.5, 100: 3.0}

    def test_full_rows_roundtrip(self):
        procs = {1000: (0.25, 2e6, 30.0), 1001: (0.125, 4e6, 0.0)}
        _, decoded = _roundtrip("kecho:dproc.monitor",
                                self._monitor(self._batch(procs=procs)))
        assert decoded.payload.procs == procs

    def test_absent_sections_stay_absent(self):
        batch = self._batch()
        _, decoded = _roundtrip("kecho:dproc.monitor",
                                self._monitor(batch))
        assert decoded.payload.proc_top is None
        assert decoded.payload.procs is None
        assert _content(decoded.payload) == _content(batch)

    def test_legacy_frame_without_sections_decodes(self):
        """A body that ends right after the record columns (what the
        encoder emits when no keyed row exists) and one that spells
        out two zero-count sections decode to the same batch."""
        batch = self._batch()
        body = FrameDecoder().feed(
            encode_frame("t", self._monitor(batch)))[0]
        assert body.endswith(struct.pack(">Hdd", MetricId.LOADAVG,
                                         1.5, 2.0))
        for frame in (body, body + struct.pack(">HH", 0, 0)):
            _, decoded = decode_frame(frame)
            assert _content(decoded.payload) == _content(batch)

    def test_too_many_rows_rejected(self):
        batch = RecordBatch("maui", (), (), 2.0,
                            proc_top={pid: 1.0 for pid in range(0x10000)})
        with pytest.raises(ChannelError):
            encode_frame("t", self._monitor(batch))

    @pytest.mark.parametrize("batch", [
        RecordBatch("maui", (), (), 2.0,
                    procs={pid: (1.0, 2.0, 3.0)
                           for pid in range(0x10000)}),
        RecordBatch("maui", tuple(range(0x10000)), (1.0,) * 0x10000,
                    2.0),
    ], ids=["procs", "metrics"])
    def test_too_many_of_anything_counted_is_rejected(self, batch):
        """One more than a u16 count can say is a ChannelError for
        every section — the record count too, which feeds a format
        string and used to escape as a bare struct.error."""
        with pytest.raises(ChannelError):
            encode_frame("t", self._monitor(batch))


class TestIncrementalDecoder:
    def _frames(self, n: int) -> list[bytes]:
        return [encode_frame("t", _numbered(i)) for i in range(n)]

    def test_byte_at_a_time(self):
        stream = b"".join(self._frames(3))
        decoder = FrameDecoder()
        bodies = []
        for i in range(len(stream)):
            bodies.extend(decoder.feed(stream[i:i + 1]))
        assert [_number(b) for b in bodies] == [0, 1, 2]

    def test_multiple_frames_in_one_chunk(self):
        stream = b"".join(self._frames(4))
        assert len(FrameDecoder().feed(stream)) == 4

    def test_partial_frame_held_back(self):
        frame = self._frames(1)[0]
        decoder = FrameDecoder()
        assert decoder.feed(frame[:7]) == []
        assert len(decoder.feed(frame[7:])) == 1

    def test_oversize_length_prefix_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(ChannelError):
            decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))


class TestBadFrames:
    def test_bad_magic(self):
        body = FrameDecoder().feed(encode_frame("t", _numbered(0)))[0]
        corrupt = struct.pack(">H", MAGIC ^ 0xFFFF) + body[2:]
        with pytest.raises(ChannelError):
            decode_frame(corrupt)

    def test_truncated_body(self):
        body = FrameDecoder().feed(encode_frame("t", _numbered(0)))[0]
        with pytest.raises(ChannelError):
            decode_frame(body[:-3])

    @pytest.mark.parametrize("raw", [
        b'{"sender":"a","target":"b","command":"x","bogus":1}',
        b'{"sender":"a","target":"b"}',
        b'["a","b","x"]',
        b'{"sender":"a","target":null,"command":"x"}',
        b'{"sender":"a","target":7,"command":"x"}',
        b'{"sender":"a","command":"x"}',
        b'{"x":',
        b"\xff\xfe",
        b"[" * 100_000,
    ], ids=["extra-field", "missing-field", "not-an-object",
            "null-target", "number-target", "no-target", "bad-json",
            "bad-utf8", "nested-too-deep"])
    def test_malformed_body_is_a_channel_error(self, raw):
        """Whatever is wrong inside the body, the caller sees
        ChannelError — not the ValueError/TypeError/RecursionError of
        the library that noticed."""
        body = FrameDecoder().feed(encode_frame(
            "kecho:dproc.control", ChannelEvent(
                channel="dproc.control", source="s", size=1.0,
                submitted_at=0.0,
                payload=ControlMessage("a", "b", "x"))))[0]
        # magic, kind, flags; the channel's 13 characters and the
        # source's one as two strings; two f64: the JSON document's
        # u32 length starts at byte 38.
        assert struct.unpack_from(">I", body, 38)[0] == len(body) - 42
        corrupt = body[:38] + struct.pack(">I", len(raw)) + raw
        with pytest.raises(ChannelError):
            decode_frame(corrupt)

    def test_unknown_metric_id_is_a_channel_error(self):
        good, bad = unknown_metric_frames()
        assert decode_frame(good[4:])[0] == "t"
        with pytest.raises(ChannelError):
            decode_frame(bad[4:])


class TestBatch:
    def _frames(self, n: int) -> list[bytes]:
        return [encode_frame("t", _numbered(i)) for i in range(n)]

    def test_batch_unwraps_in_order(self):
        batch = encode_batch(self._frames(5))
        bodies = FrameDecoder().feed(batch)
        assert [_number(b) for b in bodies] == [0, 1, 2, 3, 4]

    def test_mixed_stream_of_batches_and_singles(self):
        frames = self._frames(6)
        stream = (frames[0] + encode_batch(frames[1:4]) + frames[4]
                  + encode_batch(frames[5:]))
        bodies = FrameDecoder().feed(stream)
        assert [_number(b) for b in bodies] == [0, 1, 2, 3, 4, 5]

    def test_batch_byte_at_a_time(self):
        batch = encode_batch(self._frames(3))
        decoder = FrameDecoder()
        bodies = []
        for i in range(len(batch)):
            bodies.extend(decoder.feed(batch[i:i + 1]))
        assert len(bodies) == 3
        decoder.finish()

    def test_kind_4_is_an_unknown_kind(self):
        """The kind the old BATCH super-frame used is no kind at all:
        a frame that claims it is refused like any unknown kind."""
        body = self._frames(1)[0][4:]
        assert body[2] == 1  # MONITOR
        with pytest.raises(ChannelError, match="unknown frame kind 4"):
            decode_frame(body[:2] + bytes([4]) + body[3:])


class TestDecoderHardening:
    def test_zero_length_frame_rejected(self):
        with pytest.raises(ChannelError, match="zero-length"):
            FrameDecoder().feed(struct.pack(">I", 0))

    def test_finish_clean_at_frame_boundary(self):
        frame = encode_frame("t", _numbered(0))
        decoder = FrameDecoder()
        decoder.feed(frame)
        decoder.finish()  # no residue -> no error

    def test_finish_raises_on_partial_header(self):
        decoder = FrameDecoder()
        decoder.feed(b"\x00\x00")
        with pytest.raises(ChannelError, match="mid-frame"):
            decoder.finish()

    def test_finish_raises_on_partial_body(self):
        frame = encode_frame("t", _numbered(0))
        decoder = FrameDecoder()
        decoder.feed(frame[:-1])
        with pytest.raises(ChannelError, match="mid-frame"):
            decoder.finish()

    def test_pending_bytes_tracks_buffer(self):
        frame = encode_frame("t", _numbered(0))
        decoder = FrameDecoder()
        decoder.feed(frame[:10])
        assert decoder.pending_bytes == 10
        decoder.feed(frame[10:])
        assert decoder.pending_bytes == 0
